//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! The integrity footer of the `LTINDEX3` index image, of model bundles and
//! training checkpoints, and of WAL frames, the WAL manifest and wire
//! frames, so that bit-flips in persisted or transmitted bytes fail loudly
//! instead of silently corrupting search results or a resumed run.
//! Implemented locally — the workspace deliberately has no checksum crate
//! dependency.
//!
//! [`update`] picks its kernel from the CPU, with no option to choose:
//! - On x86-64 CPUs with PCLMULQDQ, inputs of at least 64 bytes go through
//!   a carry-less-multiply folding kernel (the private `clmul` module, the
//!   crate's only `unsafe` code), which checked a 4 MB image about 14
//!   times as fast as slice-by-8 (`kernels` bench, 2-vCPU x86-64 VM). It
//!   takes whole 16-byte blocks; the last 0–15 bytes go to slice-by-8.
//! - Everything else goes through a slice-by-8 table kernel: eight tables,
//!   where `TABLES[j][b]` is the CRC contribution of byte `b` followed by
//!   `j` zero bytes, advance the state over eight bytes with eight
//!   independent lookups instead of a chain of eight dependent ones. Its
//!   last 0–7 bytes go through the byte-at-a-time loop.
//!
//! The kernels compute the same function, so the choice changes no byte
//! on disk or on the wire. Slice-by-8 is the fallback and the oracle the
//! tests hold the carry-less kernel to, and the byte loop is the
//! reference for both.

mod clmul;

use clmul::Clmul;

/// The generator polynomial, reflected: bit `i` is the coefficient of
/// `x^(31 - i)`, and `x^32` is implied.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32 of `bytes` (standard init `0xFFFFFFFF`, final xor `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Advances a raw (pre-final-xor) CRC state over `bytes`; lets callers
/// checksum a stream in chunks: start from `0xFFFFFFFF`, finish by xoring
/// with `0xFFFFFFFF`.
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    update_with(Clmul::detect(), state, bytes)
}

/// [`update`] with the kernel given: the carry-less kernel when there is
/// one and `bytes` is long enough for it, slice-by-8 for the rest.
fn update_with(kernel: Option<Clmul>, state: u32, bytes: &[u8]) -> u32 {
    match kernel {
        Some(kernel) if bytes.len() >= clmul::MIN_LEN => {
            let (state, rest) = kernel.update(state, bytes);
            update_sliced(state, rest)
        }
        _ => update_sliced(state, bytes),
    }
}

/// The slice-by-8 kernel: the fallback, and the tests' oracle.
fn update_sliced(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    update_bytewise(c, words.remainder())
}

/// The byte-at-a-time CRC loop: the tail of [`update_sliced`], and the
/// reference of both kernels.
fn update_bytewise(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_linalg::random::check_cases;

    #[test]
    fn matches_reference_vectors() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Pseudo-random bytes, so that every table entry gets exercised.
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// The carry-less kernel when this CPU has one.
    fn clmul() -> Option<Clmul> {
        let kernel = Clmul::detect();
        if kernel.is_none() {
            eprintln!("no PCLMULQDQ on this CPU: only slice-by-8 is checked");
        }
        kernel
    }

    #[test]
    fn kernels_equal_the_byte_loop() {
        // Every length up to 4096 at every start offset within a 16-byte
        // block, from three states: the kernels must agree with the
        // reference whichever bytes land in the folded blocks, the sliced
        // words and each tail. The reference advances one byte per
        // length, so it is computed once per start and state.
        let kernel = clmul();
        let data = noise(4096 + 16);
        for start in 0..16 {
            for state in [0xFFFF_FFFFu32, 0, 0x1234_5678] {
                let mut reference = state;
                for len in 0..=4096 {
                    let bytes = &data[start..start + len];
                    let what = format!("start {start} len {len} state {state:#x}");
                    assert_eq!(update_sliced(state, bytes), reference, "slice-by-8, {what}");
                    if let Some(kernel) = kernel {
                        assert_eq!(
                            update_with(Some(kernel), state, bytes),
                            reference,
                            "clmul, {what}"
                        );
                    }
                    if let Some(&next) = data.get(start + len) {
                        reference = update_bytewise(reference, &[next]);
                    }
                }
            }
        }
    }

    #[test]
    fn check_value_holds_through_the_kernel() {
        // CRC is linear: from state 0, leading zero bytes leave the state
        // 0, and the state after a message from `s` is the state after as
        // many zero bytes from `s`, xored with the state after the message
        // from 0. So 55 zero bytes put "123456789" in one 64-byte block,
        // which the kernel folds alone.
        let Some(kernel) = clmul() else { return };
        let mut block = [0u8; 64];
        block[55..].copy_from_slice(b"123456789");
        let (from_zero, rest) = kernel.update(0, &block);
        assert!(rest.is_empty());
        let zeros = update_bytewise(0xFFFF_FFFF, &[0; 9]);
        assert_eq!(from_zero ^ zeros ^ 0xFFFF_FFFF, 0xCBF4_3926);
    }

    #[test]
    fn random_splits_equal_one_crc() {
        // One 1 MiB buffer fed to `update` in seeded random pieces, most
        // short, some past the kernel's 64-byte minimum, some long: the
        // block edges fall in different places relative to the stream in
        // every case.
        let data = noise(1 << 20);
        let whole = crc32(&data);
        check_cases("random_splits_equal_one_crc", 26, 8, |rng| {
            let mut state = 0xFFFF_FFFFu32;
            let mut rest = &data[..];
            while !rest.is_empty() {
                let size = match rng.gen_range(0..4usize) {
                    0 => rng.gen_range(0..64usize),
                    1 => rng.gen_range(64..256usize),
                    2 => rng.gen_range(256..8192usize),
                    _ => rng.gen_range(8192..200_000usize),
                };
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                state = update(state, chunk);
                rest = tail;
            }
            assert_eq!(state ^ 0xFFFF_FFFF, whole);
        });
    }

    #[test]
    fn chunked_equals_whole() {
        // Uneven splits put the word edges of every chunk in different
        // places relative to the stream.
        let data = noise(1000);
        let whole = crc32(&data);
        for sizes in [&[7usize][..], &[1, 7, 8, 9], &[3, 13], &[8], &[999], &[17, 5, 64, 2]] {
            let mut state = 0xFFFF_FFFFu32;
            let mut rest = &data[..];
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                state = update(state, chunk);
                rest = tail;
            }
            assert_eq!(state ^ 0xFFFF_FFFF, whole, "splits {sizes:?}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // 128 bytes: the kernel checks the flipped buffer where the CPU
        // has it.
        let data = vec![0xA5u8; 128];
        let base = crc32(&data);
        for byte in [0usize, 17, 127] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
