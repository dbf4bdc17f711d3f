//! Length-prefixed binary wire protocol.
//!
//! Every message travels in one frame:
//!
//! ```text
//! ┌──────────────┬───────────────────┬──────────────────────┐
//! │ len: u32 LE  │ payload: len bytes│ crc32(payload): u32 LE│
//! └──────────────┴───────────────────┴──────────────────────┘
//! ```
//!
//! `len` counts only the payload. The CRC32 (IEEE, via
//! [`lightlt_core::checksum`]) is verified on receipt, so a corrupted or
//! desynchronized stream fails loudly instead of decoding garbage into a
//! query. Payloads are capped at [`MAX_FRAME_BYTES`] so a malformed length
//! field cannot drive an allocation of arbitrary size.
//!
//! The payload itself is a tagged little-endian encoding of [`Request`] /
//! [`Response`]; all integers are fixed-width LE, floats are IEEE-754 bit
//! patterns, strings are length-prefixed UTF-8.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use lightlt_core::checksum::crc32;
use lt_obs::trace::{Span, Trace};
use lt_obs::{HistogramSnapshot, MetricValue, Snapshot};

/// Hard cap on a frame payload (64 MiB): large enough for any realistic
/// upsert batch, small enough that a corrupt length field cannot OOM the
/// server.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How long [`read_frame`] tolerates zero progress *inside* a frame before
/// giving up on the connection. Poll-style read timeouts (50 ms on the
/// server) are far shorter than this, so transient stalls — a TCP
/// retransmit, a slow sender mid-upsert — are retried internally instead
/// of surfacing and desynchronizing the stream.
pub const MID_FRAME_STALL: Duration = Duration::from_secs(5);

/// The most [`read_frame`] reserves for a payload before any of it has
/// arrived.
const PAYLOAD_STEP: usize = 64 * 1024;

/// Operations a client can request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// kNN search: top-`k` over the current index snapshot.
    Search {
        /// Number of results requested (must be ≥ 1).
        k: u32,
        /// Query embedding; its length must equal the index dimension.
        query: Vec<f32>,
    },
    /// Append `rows` new embeddings (row-major, `rows.len() = n·dim`);
    /// the server encodes them online and they become visible to every
    /// search batch formed after the acknowledgement.
    Upsert {
        /// Dimensionality of each row.
        dim: u32,
        /// Row-major embedding data.
        rows: Vec<f32>,
    },
    /// Remove item `id` (swap-remove semantics: the last item moves into
    /// the freed slot; the response names the moved id).
    Delete {
        /// Id of the item to remove.
        id: u64,
    },
    /// Server/index statistics.
    Stats,
    /// Full observability snapshot: every metric in the server's lt-obs
    /// registry (versioned; see [`METRICS_VERSION`]).
    Metrics,
    /// Sampled request traces from the server's tail reservoir: the
    /// slowest complete traces of the current window plus a uniform
    /// sample, each with per-stage spans.
    Traces,
    /// Force a checksummed snapshot to disk now.
    Snapshot,
    /// Graceful shutdown: flush pending batches, write a final snapshot.
    Shutdown,
}

/// Version of the `Metrics` response encoding. Bump when the metric
/// payload layout changes; clients check this before interpreting the
/// snapshot.
pub const METRICS_VERSION: u32 = 1;

/// Server/index statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Items currently indexed.
    pub items: u64,
    /// Embedding dimensionality.
    pub dim: u32,
    /// Number of codebooks `M`.
    pub num_codebooks: u32,
    /// Codewords per codebook `K`.
    pub num_codewords: u32,
    /// Mutation epoch (bumps on every upsert/delete).
    pub epoch: u64,
    /// Searches admitted into the queue so far.
    pub searches: u64,
    /// Batches executed so far.
    pub batches: u64,
    /// Searches rejected with `Overloaded`.
    pub rejected: u64,
    /// Upserted items so far.
    pub upserts: u64,
    /// Deleted items so far.
    pub deletes: u64,
    /// Snapshots written so far.
    pub snapshots: u64,
    /// Jobs sitting in the submission queue right now.
    pub queue_len: u64,
    /// Maximum queue wait observed by any drained search job, in
    /// microseconds.
    pub max_queue_wait_us: u64,
    /// Sequence number of the last WAL-logged mutation (0 when the server
    /// runs without a WAL).
    pub wal_last_seq: u64,
    /// Number of index shards serving searches (≥ 1).
    pub shards: u64,
    /// Per-shard item counts, `shard_items.len() == shards` and summing to
    /// `items`.
    pub shard_items: Vec<u64>,
    /// Coarse-routing partition count (0 = routing disabled).
    pub route_nlist: u64,
    /// Partitions scanned per query when routing is enabled (0 otherwise).
    pub route_nprobe: u64,
}

/// Server replies.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Top-`k` hits, best first: `(item id, score)`.
    Search {
        /// `(id, score)` pairs, descending score.
        hits: Vec<(u64, f32)>,
        /// Server-assigned trace id for this request, present when request
        /// tracing is enabled. Encoded as an optional `u64` after the hit
        /// list: present on the wire exactly when `Some`.
        trace_id: Option<u64>,
    },
    /// Ids assigned to the upserted rows: `start..end`.
    Upsert {
        /// First assigned id.
        start: u64,
        /// One past the last assigned id.
        end: u64,
    },
    /// Delete acknowledgement; `moved` is the id that was relocated into
    /// the freed slot (`None` when the last item was deleted).
    Delete {
        /// Id of the item that moved into the freed slot, if any.
        moved: Option<u64>,
    },
    /// Statistics snapshot.
    Stats(ServeStats),
    /// Observability registry snapshot.
    Metrics {
        /// Encoding version ([`METRICS_VERSION`] for this build).
        version: u32,
        /// Deterministic merged registry snapshot.
        snapshot: Snapshot,
    },
    /// Sampled request traces (slowest-of-window plus uniform sample).
    Traces {
        /// Complete traces, slowest first, then uniform samples.
        traces: Vec<Trace>,
    },
    /// Snapshot written; reports the epoch it captured.
    Snapshot {
        /// Mutation epoch the snapshot captured.
        epoch: u64,
    },
    /// Shutdown acknowledged; the server stops after this reply.
    Shutdown,
    /// The request was structurally valid but semantically rejected
    /// (dimension mismatch, `k == 0`, unknown id, empty index).
    BadRequest {
        /// Human-readable reason.
        message: String,
    },
    /// The submission queue is full; retry later. Admission control
    /// rejects instead of blocking, so the accept loop never stalls.
    Overloaded,
    /// The server failed internally (e.g. snapshot I/O error).
    ServerError {
        /// Human-readable reason.
        message: String,
    },
}

// ---- payload encoding helpers -------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Sequential little-endian reader over a payload slice.
struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() < n {
            return Err(format!("truncated payload: wanted {n} bytes, have {}", self.data.len()));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let bytes = self.take(n.checked_mul(4).ok_or("float count overflow")?)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))).collect())
    }

    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let bytes = self.take(n.checked_mul(8).ok_or("u64 count overflow")?)?;
        Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect())
    }

    /// Capacity to reserve for `n` declared elements that encode to at
    /// least `min_bytes` each: no more than the rest of the payload can
    /// hold, so a forged count never sizes an allocation.
    fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min(self.data.len() / min_bytes)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    fn finish(&self) -> Result<(), String> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after payload", self.data.len()))
        }
    }
}

// Request opcodes.
const OP_SEARCH: u8 = 1;
const OP_UPSERT: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_STATS: u8 = 4;
const OP_SNAPSHOT: u8 = 5;
const OP_SHUTDOWN: u8 = 6;
const OP_METRICS: u8 = 7;
const OP_TRACES: u8 = 8;

// Response opcodes.
const RE_SEARCH: u8 = 0x81;
const RE_UPSERT: u8 = 0x82;
const RE_DELETE: u8 = 0x83;
const RE_STATS: u8 = 0x84;
const RE_SNAPSHOT: u8 = 0x85;
const RE_SHUTDOWN: u8 = 0x86;
const RE_METRICS: u8 = 0x87;
const RE_TRACES: u8 = 0x88;
const RE_BAD_REQUEST: u8 = 0xE0;
const RE_OVERLOADED: u8 = 0xE1;
const RE_SERVER_ERROR: u8 = 0xE2;

// Metric-kind tags inside a `Metrics` payload.
const MK_COUNTER: u8 = 0;
const MK_GAUGE: u8 = 1;
const MK_HISTOGRAM: u8 = 2;

// Smallest encoded size of one element of each decoded list (a metric's
// is an empty name, its kind tag and a counter or gauge value): a count
// field reserves no more elements than the bytes after it can hold.
const HIT_BYTES: usize = 8 + 4;
const METRIC_MIN_BYTES: usize = 4 + 1 + 8;
const TRACE_MIN_BYTES: usize = 3 * 8 + 2 + 4;
const SPAN_BYTES: usize = 1 + 4 + 4 * 8;

/// Sanity cap on decoded histogram bucket counts (the current layout has
/// [`lt_obs::NUM_BUCKETS`] = 64; the cap leaves room for future layouts
/// without letting a corrupt field drive a huge allocation).
const MAX_DECODED_BUCKETS: usize = 1024;

/// Sanity cap on the decoded per-shard item list (servers run a handful
/// of shards; the cap only guards against a corrupt count field).
const MAX_DECODED_SHARDS: usize = 1 << 16;

/// Sanity cap on decoded traces (the server reservoir holds ≤ 16; the cap
/// only guards against a corrupt count field).
const MAX_DECODED_TRACES: usize = 256;

/// Sanity cap on decoded spans per trace (the span arena holds ≤ 40 per
/// request; the cap only guards against a corrupt count field).
const MAX_DECODED_SPANS: usize = 4096;

/// Encodes a request payload (without framing).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Search { k, query } => {
            buf.push(OP_SEARCH);
            put_u32(&mut buf, *k);
            put_u32(&mut buf, query.len() as u32);
            for &v in query {
                put_f32(&mut buf, v);
            }
        }
        Request::Upsert { dim, rows } => {
            buf.push(OP_UPSERT);
            put_u32(&mut buf, *dim);
            put_u32(&mut buf, rows.len() as u32);
            for &v in rows {
                put_f32(&mut buf, v);
            }
        }
        Request::Delete { id } => {
            buf.push(OP_DELETE);
            put_u64(&mut buf, *id);
        }
        Request::Stats => buf.push(OP_STATS),
        Request::Metrics => buf.push(OP_METRICS),
        Request::Traces => buf.push(OP_TRACES),
        Request::Snapshot => buf.push(OP_SNAPSHOT),
        Request::Shutdown => buf.push(OP_SHUTDOWN),
    }
    buf
}

/// Decodes a request payload.
///
/// # Errors
/// Returns a message on an unknown opcode, truncation, or trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut c = Cursor { data: payload };
    let req = match c.u8()? {
        OP_SEARCH => {
            let k = c.u32()?;
            let dim = c.u32()? as usize;
            Request::Search { k, query: c.f32_vec(dim)? }
        }
        OP_UPSERT => {
            let dim = c.u32()?;
            let count = c.u32()? as usize;
            Request::Upsert { dim, rows: c.f32_vec(count)? }
        }
        OP_DELETE => Request::Delete { id: c.u64()? },
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_TRACES => Request::Traces,
        OP_SNAPSHOT => Request::Snapshot,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(format!("unknown request opcode {other:#04x}")),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a response payload (without framing).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Search { hits, trace_id } => {
            buf.push(RE_SEARCH);
            put_u32(&mut buf, hits.len() as u32);
            for &(id, score) in hits {
                put_u64(&mut buf, id);
                put_f32(&mut buf, score);
            }
            // Trailing field: omitted entirely when tracing is off, so the
            // payload stays byte-identical to the pre-tracing layout.
            if let Some(id) = trace_id {
                put_u64(&mut buf, *id);
            }
        }
        Response::Upsert { start, end } => {
            buf.push(RE_UPSERT);
            put_u64(&mut buf, *start);
            put_u64(&mut buf, *end);
        }
        Response::Delete { moved } => {
            buf.push(RE_DELETE);
            match moved {
                Some(id) => {
                    buf.push(1);
                    put_u64(&mut buf, *id);
                }
                None => buf.push(0),
            }
        }
        Response::Stats(s) => {
            buf.push(RE_STATS);
            put_u64(&mut buf, s.items);
            put_u32(&mut buf, s.dim);
            put_u32(&mut buf, s.num_codebooks);
            put_u32(&mut buf, s.num_codewords);
            put_u64(&mut buf, s.epoch);
            put_u64(&mut buf, s.searches);
            put_u64(&mut buf, s.batches);
            put_u64(&mut buf, s.rejected);
            put_u64(&mut buf, s.upserts);
            put_u64(&mut buf, s.deletes);
            put_u64(&mut buf, s.snapshots);
            put_u64(&mut buf, s.queue_len);
            put_u64(&mut buf, s.max_queue_wait_us);
            put_u64(&mut buf, s.wal_last_seq);
            put_u64(&mut buf, s.shards);
            put_u32(&mut buf, s.shard_items.len() as u32);
            for &n in &s.shard_items {
                put_u64(&mut buf, n);
            }
            put_u64(&mut buf, s.route_nlist);
            put_u64(&mut buf, s.route_nprobe);
        }
        Response::Metrics { version, snapshot } => {
            buf.push(RE_METRICS);
            put_u32(&mut buf, *version);
            put_u32(&mut buf, snapshot.metrics.len() as u32);
            for (name, value) in &snapshot.metrics {
                put_str(&mut buf, name);
                match value {
                    MetricValue::Counter(v) => {
                        buf.push(MK_COUNTER);
                        put_u64(&mut buf, *v);
                    }
                    MetricValue::Gauge(v) => {
                        buf.push(MK_GAUGE);
                        put_u64(&mut buf, *v as u64);
                    }
                    MetricValue::Histogram(h) => {
                        buf.push(MK_HISTOGRAM);
                        put_u64(&mut buf, h.count);
                        put_u64(&mut buf, h.sum);
                        put_u64(&mut buf, h.max);
                        put_u32(&mut buf, h.buckets.len() as u32);
                        for &b in &h.buckets {
                            put_u64(&mut buf, b);
                        }
                    }
                }
            }
        }
        Response::Traces { traces } => {
            buf.push(RE_TRACES);
            put_u32(&mut buf, traces.len() as u32);
            for t in traces {
                put_u64(&mut buf, t.id);
                put_u64(&mut buf, t.start_us);
                put_u64(&mut buf, t.total_us);
                match t.tail_q {
                    Some(q) => {
                        buf.push(1);
                        buf.push(q);
                    }
                    None => {
                        buf.push(0);
                        buf.push(0);
                    }
                }
                put_u32(&mut buf, t.spans.len() as u32);
                for s in &t.spans {
                    buf.push(s.stage);
                    put_u32(&mut buf, s.shard);
                    put_u64(&mut buf, s.start_us);
                    put_u64(&mut buf, s.dur_us);
                    put_u64(&mut buf, s.items);
                    put_u64(&mut buf, s.reranked);
                }
            }
        }
        Response::Snapshot { epoch } => {
            buf.push(RE_SNAPSHOT);
            put_u64(&mut buf, *epoch);
        }
        Response::Shutdown => buf.push(RE_SHUTDOWN),
        Response::BadRequest { message } => {
            buf.push(RE_BAD_REQUEST);
            put_str(&mut buf, message);
        }
        Response::Overloaded => buf.push(RE_OVERLOADED),
        Response::ServerError { message } => {
            buf.push(RE_SERVER_ERROR);
            put_str(&mut buf, message);
        }
    }
    buf
}

/// Decodes a response payload.
///
/// # Errors
/// Returns a message on an unknown opcode, truncation, or trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor { data: payload };
    let resp = match c.u8()? {
        RE_SEARCH => {
            let n = c.u32()? as usize;
            let mut hits = Vec::with_capacity(c.capacity(n, HIT_BYTES));
            for _ in 0..n {
                let id = c.u64()?;
                let score = c.f32()?;
                hits.push((id, score));
            }
            // The trace id follows the hits only when tracing is on.
            let trace_id = if c.data.is_empty() { None } else { Some(c.u64()?) };
            Response::Search { hits, trace_id }
        }
        RE_UPSERT => Response::Upsert { start: c.u64()?, end: c.u64()? },
        RE_DELETE => {
            let moved = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                other => return Err(format!("bad moved tag {other}")),
            };
            Response::Delete { moved }
        }
        // Fields decode in the order they are written, which is the wire order.
        RE_STATS => Response::Stats(ServeStats {
            items: c.u64()?,
            dim: c.u32()?,
            num_codebooks: c.u32()?,
            num_codewords: c.u32()?,
            epoch: c.u64()?,
            searches: c.u64()?,
            batches: c.u64()?,
            rejected: c.u64()?,
            upserts: c.u64()?,
            deletes: c.u64()?,
            snapshots: c.u64()?,
            queue_len: c.u64()?,
            max_queue_wait_us: c.u64()?,
            wal_last_seq: c.u64()?,
            shards: c.u64()?,
            shard_items: {
                let n = c.u32()? as usize;
                if n > MAX_DECODED_SHARDS {
                    return Err(format!("shard count {n} exceeds cap"));
                }
                c.u64_vec(n)?
            },
            route_nlist: c.u64()?,
            route_nprobe: c.u64()?,
        }),
        RE_METRICS => {
            let version = c.u32()?;
            let count = c.u32()? as usize;
            let mut metrics = Vec::with_capacity(c.capacity(count, METRIC_MIN_BYTES));
            for _ in 0..count {
                let name = c.str()?;
                let value = match c.u8()? {
                    MK_COUNTER => MetricValue::Counter(c.u64()?),
                    MK_GAUGE => MetricValue::Gauge(c.u64()? as i64),
                    MK_HISTOGRAM => {
                        let count = c.u64()?;
                        let sum = c.u64()?;
                        let max = c.u64()?;
                        let n = c.u32()? as usize;
                        if n > MAX_DECODED_BUCKETS {
                            return Err(format!("histogram bucket count {n} exceeds cap"));
                        }
                        let buckets = c.u64_vec(n)?;
                        MetricValue::Histogram(HistogramSnapshot { buckets, count, sum, max })
                    }
                    other => return Err(format!("unknown metric kind tag {other}")),
                };
                metrics.push((name, value));
            }
            Response::Metrics { version, snapshot: Snapshot { metrics } }
        }
        RE_TRACES => {
            let n = c.u32()? as usize;
            if n > MAX_DECODED_TRACES {
                return Err(format!("trace count {n} exceeds cap"));
            }
            let mut traces = Vec::with_capacity(c.capacity(n, TRACE_MIN_BYTES));
            for _ in 0..n {
                let id = c.u64()?;
                let start_us = c.u64()?;
                let total_us = c.u64()?;
                let has_tail_q = c.u8()?;
                let tail_q_raw = c.u8()?;
                let tail_q = match has_tail_q {
                    0 => None,
                    1 => Some(tail_q_raw),
                    other => return Err(format!("bad tail_q tag {other}")),
                };
                let nspans = c.u32()? as usize;
                if nspans > MAX_DECODED_SPANS {
                    return Err(format!("span count {nspans} exceeds cap"));
                }
                let mut spans = Vec::with_capacity(c.capacity(nspans, SPAN_BYTES));
                for _ in 0..nspans {
                    spans.push(Span {
                        stage: c.u8()?,
                        shard: c.u32()?,
                        start_us: c.u64()?,
                        dur_us: c.u64()?,
                        items: c.u64()?,
                        reranked: c.u64()?,
                    });
                }
                traces.push(Trace { id, start_us, total_us, tail_q, spans });
            }
            Response::Traces { traces }
        }
        RE_SNAPSHOT => Response::Snapshot { epoch: c.u64()? },
        RE_SHUTDOWN => Response::Shutdown,
        RE_BAD_REQUEST => Response::BadRequest { message: c.str()? },
        RE_OVERLOADED => Response::Overloaded,
        RE_SERVER_ERROR => Response::ServerError { message: c.str()? },
        other => return Err(format!("unknown response opcode {other:#04x}")),
    };
    c.finish()?;
    Ok(resp)
}

impl Request {
    /// Method form of [`encode_request`].
    pub fn encode(&self) -> Vec<u8> {
        encode_request(self)
    }

    /// Method form of [`decode_request`].
    ///
    /// # Errors
    /// See [`decode_request`].
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        decode_request(payload)
    }
}

impl Response {
    /// Method form of [`encode_response`].
    pub fn encode(&self) -> Vec<u8> {
        encode_response(self)
    }

    /// Method form of [`decode_response`].
    ///
    /// # Errors
    /// See [`decode_response`].
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        decode_response(payload)
    }
}

// ---- framing -------------------------------------------------------------

/// Writes one frame (length prefix + payload + CRC32) and flushes.
///
/// # Errors
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {MAX_FRAME_BYTES}", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Fills `buf[got..]`, retrying `Interrupted` always and
/// `WouldBlock`/`TimedOut` until [`MID_FRAME_STALL`] passes with no
/// progress. Used only once a frame has started: a poll-style read timeout
/// must never abandon a partially consumed frame (the discarded bytes
/// would desynchronize the stream), so short stalls retry and only a
/// persistent one becomes a hard, connection-fatal error.
fn read_remaining<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    mut got: usize,
    what: &str,
) -> io::Result<()> {
    let mut last_progress = Instant::now();
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("eof inside {what}"),
                ))
            }
            Ok(n) => {
                got += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Deliberately NOT TimedOut/WouldBlock: callers treat those
                // as an idle poll tick, and this stream is no longer
                // resumable.
                if last_progress.elapsed() >= MID_FRAME_STALL {
                    return Err(io::Error::other(format!(
                        "connection stalled {}s inside {what}",
                        MID_FRAME_STALL.as_secs()
                    )));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame, verifying length cap and CRC32. Returns `Ok(None)` on
/// a clean EOF before the first header byte (peer closed between frames).
///
/// On a stream with a read timeout, `WouldBlock`/`TimedOut` escapes only
/// while **zero** bytes of the frame have been consumed (an idle poll
/// tick, safe to retry). Once the first header byte arrives the frame is
/// read to completion, retrying short stalls internally; a stall longer
/// than [`MID_FRAME_STALL`] is a hard error (kind `Other`), because the
/// partially consumed frame makes the stream unrecoverable.
///
/// The payload buffer grows as the payload arrives, so a header alone
/// never reserves more than 64 KiB.
///
/// # Errors
/// `InvalidData` on an oversized length field or CRC mismatch;
/// `UnexpectedEof` on mid-frame truncation; `Other` on a mid-frame stall;
/// other I/O errors as-is.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    // First byte: clean EOF and idle timeouts surface to the caller.
    let mut got = 0;
    while got == 0 {
        match r.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => got = n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    read_remaining(r, &mut header, got, "frame header")?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    // `len` is untrusted until the bytes arrive: each step at most doubles
    // what has been received (the first is at most PAYLOAD_STEP).
    let mut payload = Vec::new();
    while payload.len() < len {
        let got = payload.len();
        payload.resize(got + (len - got).min(got.max(PAYLOAD_STEP)), 0);
        read_remaining(r, &mut payload, got, "frame payload")?;
    }
    let mut crc_bytes = [0u8; 4];
    read_remaining(r, &mut crc_bytes, 0, "frame checksum")?;
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Search { k: 10, query: vec![0.5, -1.25, 3.0] });
        roundtrip_request(Request::Upsert { dim: 2, rows: vec![1.0, 2.0, 3.0, 4.0] });
        roundtrip_request(Request::Delete { id: 42 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Snapshot);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Search { hits: vec![(7, 0.5), (3, -0.25)], trace_id: None });
        roundtrip_response(Response::Search { hits: vec![(7, 0.5)], trace_id: Some(42) });
        roundtrip_response(Response::Upsert { start: 100, end: 104 });
        roundtrip_response(Response::Delete { moved: Some(9) });
        roundtrip_response(Response::Delete { moved: None });
        roundtrip_response(Response::Stats(ServeStats {
            items: 10,
            dim: 6,
            num_codebooks: 3,
            num_codewords: 16,
            epoch: 2,
            searches: 5,
            batches: 3,
            rejected: 1,
            upserts: 4,
            deletes: 1,
            snapshots: 2,
            queue_len: 0,
            max_queue_wait_us: 1234,
            wal_last_seq: 9001,
            shards: 4,
            shard_items: vec![3, 3, 2, 2],
            route_nlist: 64,
            route_nprobe: 8,
        }));
        roundtrip_response(Response::Snapshot { epoch: 17 });
        roundtrip_response(Response::Shutdown);
        roundtrip_response(Response::BadRequest { message: "dim mismatch".into() });
        roundtrip_response(Response::Overloaded);
        roundtrip_response(Response::ServerError { message: "disk full".into() });
    }

    #[test]
    fn metrics_frames_roundtrip() {
        roundtrip_request(Request::Metrics);
        roundtrip_response(Response::Metrics { version: METRICS_VERSION, snapshot: Snapshot::default() });
        let snapshot = Snapshot {
            metrics: vec![
                ("serve.connections".into(), MetricValue::Gauge(-2)),
                (
                    "serve.queue_wait_us".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        buckets: (0..lt_obs::NUM_BUCKETS as u64).collect(),
                        count: 2016,
                        sum: 987654321,
                        max: u64::MAX,
                    }),
                ),
                ("serve.searches".into(), MetricValue::Counter(u64::MAX)),
            ],
        };
        roundtrip_response(Response::Metrics { version: METRICS_VERSION, snapshot });
    }

    #[test]
    fn metrics_encoding_is_deterministic() {
        // The acceptance bar: identical snapshots encode to identical
        // bytes, so cross-thread-width determinism is checkable bitwise.
        let snapshot = Snapshot {
            metrics: vec![(
                "scan.scan_us".into(),
                MetricValue::Histogram(HistogramSnapshot {
                    buckets: vec![0; lt_obs::NUM_BUCKETS],
                    count: 0,
                    sum: 0,
                    max: 0,
                }),
            )],
        };
        let a = encode_response(&Response::Metrics { version: 1, snapshot: snapshot.clone() });
        let b = encode_response(&Response::Metrics { version: 1, snapshot });
        assert_eq!(a, b);
    }

    #[test]
    fn stats_payload_cut_at_any_field_boundary_is_an_error() {
        let stats = ServeStats {
            items: 10,
            dim: 6,
            num_codebooks: 3,
            num_codewords: 16,
            epoch: 2,
            searches: 5,
            batches: 3,
            rejected: 1,
            upserts: 4,
            deletes: 1,
            snapshots: 2,
            queue_len: 0,
            max_queue_wait_us: 777,
            wal_last_seq: 55,
            shards: 2,
            shard_items: vec![6, 4],
            route_nlist: 16,
            route_nprobe: 4,
        };
        let full = encode_response(&Response::Stats(stats.clone()));
        assert_eq!(decode_response(&full).unwrap(), Response::Stats(stats));
        // Opcode, then 18 fields and two shard items. Every field is
        // required: a payload that stops after any of them is an error.
        let widths = [1, 8, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 8, 8, 8, 8];
        assert_eq!(widths.iter().sum::<usize>(), full.len());
        let mut boundary = 0;
        for width in &widths[..widths.len() - 1] {
            boundary += width;
            assert!(decode_response(&full[..boundary]).is_err(), "cut at byte {boundary}");
        }
    }

    #[test]
    fn search_trace_id_is_a_trailing_compatible_field() {
        // Tracing-off payloads are byte-identical to the pre-tracing
        // layout: `None` encodes to exactly the legacy bytes, and the
        // legacy bytes decode back to `None`.
        let hits = vec![(7u64, 0.5f32), (3, -0.25)];
        let off = encode_response(&Response::Search { hits: hits.clone(), trace_id: None });
        let on = encode_response(&Response::Search { hits: hits.clone(), trace_id: Some(99) });
        assert_eq!(on.len(), off.len() + 8, "trace id is one trailing u64");
        assert_eq!(&on[..off.len()], &off[..], "prefix identical to legacy layout");
        assert_eq!(
            decode_response(&off).unwrap(),
            Response::Search { hits: hits.clone(), trace_id: None }
        );
        assert_eq!(
            decode_response(&on).unwrap(),
            Response::Search { hits, trace_id: Some(99) }
        );
        // A torn trailing field is still a decode error.
        let mut torn = on;
        torn.truncate(torn.len() - 3);
        assert!(decode_response(&torn).is_err());
    }

    #[test]
    fn traces_frames_roundtrip() {
        roundtrip_request(Request::Traces);
        roundtrip_response(Response::Traces { traces: Vec::new() });
        let span = |stage, shard, start_us, dur_us| Span {
            stage,
            shard,
            start_us,
            dur_us,
            items: 1000,
            reranked: 32,
        };
        roundtrip_response(Response::Traces {
            traces: vec![
                Trace {
                    id: 7,
                    start_us: 100,
                    total_us: 250,
                    tail_q: Some(3),
                    spans: vec![span(1, u32::MAX, 100, 5), span(10, 0, 110, 80), span(10, 1, 111, 90)],
                },
                Trace { id: 9, start_us: 400, total_us: 30, tail_q: None, spans: Vec::new() },
            ],
        });
    }

    #[test]
    fn malformed_traces_payloads_rejected() {
        let good = encode_response(&Response::Traces {
            traces: vec![Trace { id: 1, start_us: 0, total_us: 5, tail_q: Some(0), spans: Vec::new() }],
        });
        // Truncated trace.
        assert!(decode_response(&good[..good.len() - 2]).is_err());
        // Corrupt tail_q tag.
        let mut bad_tag = good.clone();
        bad_tag[1 + 4 + 24] = 7;
        assert!(decode_response(&bad_tag).unwrap_err().contains("tail_q"));
        // Corrupt trace count drives the cap, not an allocation.
        let mut bad_count = good;
        bad_count[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&bad_count).unwrap_err().contains("cap"));
    }

    #[test]
    fn malformed_metrics_payloads_rejected() {
        let snapshot = Snapshot {
            metrics: vec![("a".into(), MetricValue::Counter(1))],
        };
        let good = encode_response(&Response::Metrics { version: 1, snapshot });
        // Corrupt the metric-kind tag.
        let mut bad_kind = good.clone();
        let kind_at = good.len() - 9;
        bad_kind[kind_at] = 0x7F;
        assert!(decode_response(&bad_kind).unwrap_err().contains("metric kind"));
        // Truncated value.
        assert!(decode_response(&good[..good.len() - 2]).is_err());
    }

    #[test]
    fn score_bits_survive_the_wire() {
        // Exact bit patterns matter for the bitwise-identity guarantee.
        let tricky = [f32::MIN_POSITIVE, -0.0, 1.0 + f32::EPSILON, 1e-38];
        let resp = Response::Search {
            hits: tricky.iter().enumerate().map(|(i, &s)| (i as u64, s)).collect(),
            trace_id: None,
        };
        let decoded = decode_response(&encode_response(&resp)).unwrap();
        let Response::Search { hits, .. } = decoded else { panic!("wrong variant") };
        for ((_, a), &b) in hits.iter().zip(&tricky) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn frame_roundtrip_and_crc() {
        let payload = encode_request(&Request::Search { k: 3, query: vec![1.0, 2.0] });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        // Clean EOF after a whole frame.
        assert!(read_frame(&mut r).unwrap().is_none());

        // A flipped payload bit must be caught by the CRC.
        let mut corrupt = wire.clone();
        corrupt[6] ^= 0x40;
        let err = read_frame(&mut &corrupt[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Mid-frame truncation is UnexpectedEof, not a hang or panic.
        let err = read_frame(&mut &wire[..wire.len() - 2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Replays a scripted sequence of chunks and error kinds, so tests can
    /// interleave partial reads with poll timeouts deterministically.
    struct StutterReader {
        script: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Read for StutterReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Ok(chunk)) => {
                    assert!(chunk.len() <= buf.len(), "script chunk larger than read buffer");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                Some(Err(kind)) => Err(io::Error::new(kind, "scripted error")),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn idle_timeout_surfaces_only_before_the_first_byte() {
        // A poll timeout with no frame bytes consumed is the caller's idle
        // tick: it must escape as-is so poll loops can re-check stop flags.
        let mut r = StutterReader { script: [Err(io::ErrorKind::WouldBlock)].into() };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn mid_frame_timeouts_are_retried_not_desynchronizing() {
        // Timeouts after the first byte must be retried internally: the
        // old behavior (surface, caller discards partial bytes, re-reads a
        // header) parsed leftover frame bytes as a new header.
        let payload = encode_request(&Request::Search { k: 3, query: vec![1.0, 2.0] });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut script: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>> =
            std::collections::VecDeque::new();
        // One header byte, then stalls sprinkled between single-byte reads.
        for (i, &b) in wire.iter().enumerate() {
            if i % 2 == 1 {
                script.push_back(Err(io::ErrorKind::WouldBlock));
                script.push_back(Err(io::ErrorKind::TimedOut));
            }
            script.push_back(Ok(vec![b]));
        }
        let mut r = StutterReader { script };
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
    }

    #[test]
    fn oversized_length_field_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xFF]).is_err());
        assert!(decode_response(&[0x07]).is_err());
        // Truncated search request.
        let mut payload = encode_request(&Request::Search { k: 1, query: vec![1.0, 2.0] });
        payload.truncate(payload.len() - 3);
        assert!(decode_request(&payload).is_err());
        // Trailing garbage.
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }
}
