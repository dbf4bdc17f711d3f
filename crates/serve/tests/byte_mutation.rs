//! Byte mutations of the CRC-checked inputs lt-serve reads: wire frames
//! (`read_frame`, then `decode_request` / `decode_response`), WAL segments
//! (through `replay_wal`) and the WAL manifest.
//!
//! CRC32 detects every single-bit error, so every single-bit flip of a
//! valid input must be rejected: an `Ok` is a failure. Every truncation
//! and every inflated length field must end in a typed error, never a
//! panic. A seeded loop then stacks random flips, overwrites, cuts,
//! duplicated ranges and deleted ranges, and checks that nothing panics
//! and nothing but the original records is ever applied. Most inputs are
//! longer than 64 bytes, so on a CPU with PCLMULQDQ the carry-less CRC
//! kernel is the one that checks them.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use lt_linalg::random::{check_cases, Rng};
use lt_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    MAX_FRAME_BYTES,
};
use lt_serve::wal::{replay_wal, MAX_WAL_FRAME_BYTES, WAL_MAGIC};
use lt_serve::{FsyncPolicy, Manifest, Request, Response, ServeStats, WalRecord, WalWriter};

/// `n` floats that are not all equal.
fn floats(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
}

/// One random mutation: a bit flip, a byte overwrite, a cut, a range
/// duplicated in place, or a range deleted.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    let len = bytes.len();
    if len == 0 {
        return;
    }
    let at = rng.gen_range(0..len);
    match rng.gen_range(0..5usize) {
        0 => bytes[at] ^= 1 << rng.gen_range(0..8usize),
        1 => bytes[at] = rng.gen_range(0..256usize) as u8,
        2 => bytes.truncate(at),
        3 => {
            let end = rng.gen_range(at..=len);
            let piece = bytes[at..end].to_vec();
            bytes.splice(at..at, piece);
        }
        _ => {
            let end = rng.gen_range(at..=len);
            bytes.drain(at..end);
        }
    }
}

// ---- wire frames -----------------------------------------------------------

/// One framed payload, as `write_frame` sends it.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("writing to a Vec");
    out
}

/// The frame's length field set to `len`.
fn with_len(frame: &[u8], len: u32) -> Vec<u8> {
    [&len.to_le_bytes()[..], &frame[4..]].concat()
}

fn requests() -> Vec<Request> {
    vec![
        Request::Search { k: 10, query: floats(64) },
        Request::Upsert { dim: 8, rows: floats(24) },
        Request::Delete { id: 1 << 40 },
        Request::Stats,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Search {
            hits: (0..20).map(|i| (i * 7, -(i as f32) * 0.5)).collect(),
            trace_id: Some(99),
        },
        Response::Stats(ServeStats {
            items: 500,
            dim: 8,
            num_codebooks: 3,
            num_codewords: 32,
            epoch: 4,
            searches: 11,
            shards: 4,
            shard_items: vec![125; 4],
            route_nlist: 16,
            route_nprobe: 4,
            ..ServeStats::default()
        }),
        Response::BadRequest { message: "query dimension 7 does not match the index's 8".into() },
        Response::Upsert { start: 500, end: 503 },
    ]
}

/// A payload decoder that returns the message `Debug`-printed, so requests
/// and responses share the checks.
type Decode = fn(&[u8]) -> Result<String, String>;

/// Every message above: its `Debug` text, its payload and its decoder.
fn wire_cases() -> Vec<(String, Vec<u8>, Decode)> {
    let req: Decode = |p| decode_request(p).map(|r| format!("{r:?}"));
    let resp: Decode = |p| decode_response(p).map(|r| format!("{r:?}"));
    let mut cases = Vec::new();
    for r in requests() {
        cases.push((format!("{r:?}"), encode_request(&r), req));
    }
    for r in responses() {
        cases.push((format!("{r:?}"), encode_response(&r), resp));
    }
    assert!(cases.iter().filter(|(_, p, _)| p.len() >= 64).count() >= 4);
    cases
}

#[test]
fn wire_frames_reject_every_bit_flip_truncation_and_inflated_length() {
    for (what, payload, decode) in wire_cases() {
        let frame = framed(&payload);
        let read = |bytes: &[u8]| read_frame(&mut &bytes[..]);
        let got = read(&frame).expect("a valid frame reads").expect("one frame");
        assert_eq!(decode(&got).expect("a valid payload decodes"), what);

        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = read(&flipped).expect_err(&format!("{what}: flip of bit {bit} read"));
            assert!(
                matches!(err.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "{what}: flip of bit {bit}: {err}"
            );
        }

        // A stream that ends before any byte is a clean close between
        // frames; one that ends anywhere later is a torn frame.
        assert!(read(&[]).expect("a clean close").is_none());
        for cut in 1..frame.len() {
            let err = read(&frame[..cut]).expect_err(&format!("{what}: cut at {cut} read"));
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{what}: cut at {cut}: {err}");
        }

        let len = payload.len() as u32;
        let cap = MAX_FRAME_BYTES as u32;
        for inflated in [len + 1, len + 4, 2 * len + 1, cap, cap + 1, u32::MAX] {
            let err = read(&with_len(&frame, inflated))
                .expect_err(&format!("{what}: length {inflated} read"));
            let kind =
                if inflated > cap { ErrorKind::InvalidData } else { ErrorKind::UnexpectedEof };
            assert_eq!(err.kind(), kind, "{what}: length {inflated}: {err}");
        }

        // Behind a valid CRC the decoder is the last check: every cut of
        // the payload is rejected. The one exception is by design: a
        // Search reply ends with an optional trace id, so cutting exactly
        // that field leaves the reply without it.
        for cut in 0..payload.len() {
            let got = read(&framed(&payload[..cut])).expect("a resealed frame reads");
            match decode(&got.expect("one frame")) {
                Err(_) => {}
                Ok(short) => assert!(
                    cut == payload.len() - 8 && short == what.replace("Some(99)", "None"),
                    "{what}: payload cut at {cut} decoded as {short}"
                ),
            }
        }
    }
}

#[test]
fn wire_frames_survive_seeded_mutations() {
    let cases = wire_cases();
    check_cases("wire_frames_survive_seeded_mutations", 2601, 400, |rng| {
        let (what, payload, decode) = &cases[rng.gen_range(0..cases.len())];
        // Two frames back to back, so a mutation can also shift the second
        // frame's boundary or splice the two.
        let mut stream = [framed(payload), framed(payload)].concat();
        for _ in 0..rng.gen_range(1..4usize) {
            mutate(&mut stream, rng);
        }
        let mut r = &stream[..];
        loop {
            match read_frame(&mut r) {
                Ok(None) => break,
                // A frame whose CRC holds decodes or is refused, and never
                // panics; one that is not the original can only be one
                // whose bytes happen to carry their own CRC (eight zero
                // bytes are an empty frame), which no decoder accepts.
                Ok(Some(got)) => match decode(&got) {
                    Ok(decoded) => assert_eq!(&decoded, what),
                    Err(_) => assert_ne!(&got, payload),
                },
                Err(e) => {
                    assert!(
                        matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                        "{what}: {e}"
                    );
                    break;
                }
            }
        }
    });
}

// ---- WAL segments ----------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lt_mutation_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("creating a temp dir");
    dir
}

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Upsert { dim: 16, rows: floats(48) },
        WalRecord::Delete { id: 3 },
        WalRecord::Upsert { dim: 16, rows: floats(16) },
        WalRecord::Delete { id: 0 },
    ]
}

/// A segment holding [`wal_records`] as seqs 1.., written in `dir`; its
/// file name; and the end offset of each frame.
fn wal_segment(dir: &Path) -> (Vec<u8>, String, Vec<usize>) {
    let mut w = WalWriter::create(dir, FsyncPolicy::Never, 1).expect("creating a WAL");
    for record in wal_records() {
        w.append(&record).expect("appending");
    }
    drop(w);
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("listing the WAL dir")
        .map(|e| e.expect("a dir entry").file_name().into_string().expect("a UTF-8 name"))
        .collect();
    assert_eq!(names.len(), 1, "one segment: {names:?}");
    let name = names.pop().expect("one name");
    let bytes = fs::read(dir.join(&name)).expect("reading the segment");
    let mut ends = Vec::new();
    let mut end = WAL_MAGIC.len();
    for record in wal_records() {
        end += 4 + 8 + record.encode().len() + 4;
        ends.push(end);
    }
    assert_eq!(end, bytes.len(), "the frame layout is len | seq | payload | crc");
    (bytes, name, ends)
}

/// Replays `segment` alone from seq 0: the records applied, and why replay
/// stopped, if it did.
fn replay(dir: &Path, name: &str, segment: &[u8]) -> (Vec<WalRecord>, Option<String>) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("creating the WAL dir");
    fs::write(dir.join(name), segment).expect("writing the segment");
    let mut applied = Vec::new();
    let report = replay_wal(dir, 0, |seq, record| {
        assert_eq!(seq, applied.len() as u64 + 1, "seqs replay in order");
        applied.push(record);
        Ok(())
    })
    .expect("replay reads the directory");
    (applied, report.stopped)
}

#[test]
fn wal_replay_rejects_every_bit_flip_truncation_and_inflated_length() {
    let dir = tmp_dir("wal");
    let (segment, name, ends) = wal_segment(&dir);
    let records = wal_records();
    assert_eq!(replay(&dir, &name, &segment), (records.clone(), None));
    // The frame a byte offset falls in: the magic counts as frame 0, whose
    // loss stops replay before anything is applied.
    let frame_of = |at: usize| ends.iter().position(|&end| at < end).expect("inside the segment");

    for bit in 0..segment.len() * 8 {
        let mut flipped = segment.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let (applied, stopped) = replay(&dir, &name, &flipped);
        let frame = frame_of(bit / 8);
        assert_eq!(applied, records[..frame], "flip of bit {bit} in frame {frame}");
        assert!(stopped.is_some(), "flip of bit {bit} went unreported");
    }

    for cut in 0..segment.len() {
        let (applied, stopped) = replay(&dir, &name, &segment[..cut]);
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(applied, records[..whole], "cut at {cut}");
        let clean = cut == WAL_MAGIC.len() || ends.contains(&cut);
        assert_eq!(stopped.is_none(), clean, "cut at {cut}: {stopped:?}");
    }

    let cap = MAX_WAL_FRAME_BYTES as u32;
    for (frame, start) in
        [WAL_MAGIC.len()].into_iter().chain(ends.clone()).take(records.len()).enumerate()
    {
        let len = u32::from_le_bytes(segment[start..start + 4].try_into().expect("4 bytes"));
        for inflated in [len + 1, len + 4, 2 * len + 16, cap, cap + 1, u32::MAX] {
            let mut bytes = segment.clone();
            bytes[start..start + 4].copy_from_slice(&inflated.to_le_bytes());
            let (applied, stopped) = replay(&dir, &name, &bytes);
            assert_eq!(applied, records[..frame], "frame {frame} length {inflated}");
            assert!(stopped.is_some(), "frame {frame} length {inflated} went unreported");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_survives_seeded_mutations() {
    let dir = tmp_dir("wal_seeded");
    let (segment, name, _) = wal_segment(&dir);
    let records = wal_records();
    check_cases("wal_replay_survives_seeded_mutations", 2602, 300, |rng| {
        let mut bytes = segment.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            mutate(&mut bytes, rng);
        }
        // Whatever replay applies is the log's own prefix: a frame moved,
        // doubled or dropped breaks the seq chain, and a damaged one its CRC.
        let (applied, _) = replay(&dir, &name, &bytes);
        assert_eq!(applied, records[..applied.len()]);
    });
    let _ = fs::remove_dir_all(&dir);
}

// ---- manifest --------------------------------------------------------------

#[test]
fn manifest_rejects_every_bit_flip_truncation_and_inflated_length() {
    // A long snapshot name puts the manifest's CRC input past 64 bytes.
    let manifest = Manifest {
        covered_seq: 1 << 33,
        epoch: 77,
        snapshot_file: "snapshot-00000000008589934592-resealed-after-repair.img".into(),
    };
    let bytes = manifest.encode();
    assert!(bytes.len() >= 64 + 4);
    assert_eq!(Manifest::decode(&bytes), Ok(manifest));

    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(Manifest::decode(&flipped).is_err(), "flip of bit {bit} decoded");
    }
    for cut in 0..bytes.len() {
        assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
    }
    // The name length sits after magic, version, covered seq and epoch.
    let at = 8 + 4 + 8 + 8;
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    for inflated in [len + 1, len + 4, 2 * len, u32::MAX - 4, u32::MAX] {
        let mut forged = bytes.clone();
        forged[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
        assert!(Manifest::decode(&forged).is_err(), "name length {inflated} decoded");
    }

    check_cases("manifest_survives_seeded_mutations", 2603, 300, |rng| {
        let mut mutated = bytes.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            mutate(&mut mutated, rng);
        }
        if let Ok(decoded) = Manifest::decode(&mutated) {
            assert_eq!(mutated, bytes, "a changed manifest decoded as {decoded:?}");
        }
    });
}
