//! Microbenchmarks of the hot kernels behind every experiment: ADC
//! lookup-table search vs exhaustive scan (the Fig.-7 primitives), GEMM
//! (the training substrate), DSQ encode, one LightLT forward/backward step,
//! the blocked scan engine vs its scalar reference, thread-scaling sweeps of
//! GEMM and batch ADC search across runtime widths (the kernels are bitwise
//! deterministic with respect to thread count, so the sweeps measure pure
//! speedup), the lt-obs recording overhead on the scan path, the CRC32
//! footer check, and loading an index image shaped like lt-stack's
//! `scan-500k-u8`.
//!
//! A std-only runner: each case has one purpose, runs untimed warm-up
//! iterations and then timed repetitions, and prints the best and mean time
//! per iteration and, where the case has one, its throughput with the unit.
//!
//! Run: `cargo bench -p lt-bench --bench kernels`

use std::hint::black_box;

use lightlt_core::checksum::crc32;
use lightlt_core::search::{adc_search, adc_search_batch, exhaustive_search};
use lightlt_core::{
    deserialize_index, serialize_index, CodebookTopology, Codes, Dsq, LightLt, LightLtConfig,
    QuantizedIndex,
};
use lt_eval::time_best_of;
use lt_linalg::gemm::matmul;
use lt_linalg::random::{randn, rng};
use lt_linalg::Metric;
use lt_tensor::ParamStore;

/// Untimed runs before the timed ones.
const WARMUP: usize = 3;

/// Timed repetitions per case.
const REPS: usize = 20;

/// Thread counts swept by the scaling cases.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Times `f` and prints one result line: best and mean µs per iteration,
/// and `elements` per iteration as a rate in `unit` per second.
fn case(name: &str, elements: Option<(u64, &str)>, mut f: impl FnMut()) {
    let t = time_best_of(WARMUP, REPS, &mut f);
    let best = t.best.as_secs_f64();
    let mut line = format!(
        "{name:<44} best {:>12.2} µs  mean {:>12.2} µs",
        best * 1e6,
        t.mean.as_secs_f64() * 1e6
    );
    if let Some((n, unit)) = elements {
        line.push_str(&format!("  {:>14.0} {unit}/s", n as f64 / best.max(1e-12)));
    }
    println!("{line}");
}

/// A DSQ quantizer of `m` codebooks × 256 codewords over `dim` dimensions.
fn dsq(store: &mut ParamStore, m: usize, dim: usize, seed: u64) -> Dsq {
    let topology = CodebookTopology::DoubleSkip;
    Dsq::new(store, m, 256, dim, 64, topology, 0.2, Metric::NegSquaredL2, &mut rng(seed))
}

/// ADC search against exhaustive float search, per corpus size.
fn search() {
    let dim = 64;
    let mut store = ParamStore::new();
    let dsq = dsq(&mut store, 4, dim, 1);
    for n in [1_000usize, 10_000, 50_000] {
        let db = randn(n, dim, &mut rng(2)).scale(0.5);
        let index = QuantizedIndex::build(&dsq, &store, &db);
        let q: Vec<f32> = randn(1, dim, &mut rng(3)).into_vec();
        let items = Some((n as u64, "items"));
        case(&format!("search/adc/{n}"), items, || {
            black_box(adc_search(&index, &q, 10));
        });
        case(&format!("search/exhaustive/{n}"), items, || {
            black_box(exhaustive_search(&db, &q, Metric::NegSquaredL2, 10));
        });
    }
}

/// Square GEMM, counted in multiply-adds.
fn gemm() {
    for n in [32usize, 128, 256] {
        let a = randn(n, n, &mut rng(4));
        let b = randn(n, n, &mut rng(5));
        case(&format!("gemm/{n}"), Some(((n * n * n) as u64, "madds")), || {
            black_box(matmul(&a, &b));
        });
    }
}

/// DSQ encoding of a 256-row batch.
fn dsq_encode() {
    let dim = 32;
    let mut store = ParamStore::new();
    let dsq = dsq(&mut store, 4, dim, 6);
    let x = randn(256, dim, &mut rng(7)).scale(0.5);
    let codebooks = dsq.effective_codebooks(&store);
    case("dsq_encode_256x32_m4_k256", Some((256, "rows")), || {
        black_box(dsq.encode_with_codebooks(&codebooks, &x));
    });
}

/// One LightLT forward/backward pass on a 64-row batch.
fn train_step() {
    let config = LightLtConfig {
        input_dim: 32,
        backbone_hidden: 64,
        embed_dim: 16,
        num_classes: 10,
        num_codebooks: 4,
        num_codewords: 16,
        ffn_hidden: 32,
        ..Default::default()
    };
    let (mut model, mut store) = LightLt::new(&config, 0);
    model.set_class_counts(&[10; 10]);
    let x = randn(64, 32, &mut rng(8));
    let labels: Vec<usize> = (0..64).map(|i| i % 10).collect();
    case("lightlt_forward_backward_batch64", Some((64, "rows")), || {
        store.zero_grads();
        black_box(model.loss_on_batch(&mut store, &x, &labels));
    });
}

/// A 384³ GEMM at each runtime width.
fn gemm_threads() {
    let n = 384;
    let a = randn(n, n, &mut rng(9));
    let b = randn(n, n, &mut rng(10));
    for t in THREAD_SWEEP {
        let _width = lt_runtime::scoped_threads(t);
        case(&format!("gemm_threads/{t}"), Some(((n * n * n) as u64, "madds")), || {
            black_box(matmul(&a, &b));
        });
    }
}

/// A 64-query ADC batch over 20k items at each runtime width.
fn adc_batch_threads() {
    let dim = 64;
    let mut store = ParamStore::new();
    let dsq = dsq(&mut store, 4, dim, 11);
    let n = 20_000;
    let db = randn(n, dim, &mut rng(12)).scale(0.5);
    let index = QuantizedIndex::build(&dsq, &store, &db);
    let queries = randn(64, dim, &mut rng(13));
    let items = Some(((queries.rows() * n) as u64, "items"));
    for t in THREAD_SWEEP {
        let _width = lt_runtime::scoped_threads(t);
        case(&format!("adc_batch_threads/{t}"), items, || {
            black_box(adc_search_batch(&index, &queries, 10));
        });
    }
}

/// The blocked level-major scan engine against the scalar item-major
/// reference, on the same index and LUT: the two are bitwise identical, so
/// this measures layout and blocking alone.
fn adc_scan() {
    let dim = 64;
    let mut store = ParamStore::new();
    let dsq = dsq(&mut store, 8, dim, 14);
    for n in [10_000usize, 50_000] {
        let db = randn(n, dim, &mut rng(15)).scale(0.5);
        let index = QuantizedIndex::build(&dsq, &store, &db);
        let q: Vec<f32> = randn(1, dim, &mut rng(16)).into_vec();
        let lut = index.build_lut(&q);
        let qn = lt_linalg::gemm::dot(&q, &q);
        let mut scores = Vec::new();
        let items = Some((n as u64, "items"));
        case(&format!("adc_scan/engine/{n}"), items, || {
            index.scores_with_lut(&lut, qn, &mut scores);
            black_box(&scores);
        });
        case(&format!("adc_scan/reference/{n}"), items, || {
            index.scores_with_lut_reference(&lut, qn, &mut scores);
            black_box(&scores);
        });
    }
}

/// Observability overhead on the scan hot path: the same
/// `adc_search_batch` call with lt-obs recording disabled and enabled. The
/// disabled path is one relaxed load and an untaken branch per call, not
/// per item, so it should match the un-instrumented `BENCH_adc.json` rates.
fn serve_metrics() {
    let dim = 64;
    let mut store = ParamStore::new();
    let dsq = dsq(&mut store, 4, dim, 17);
    let n = 20_000;
    let db = randn(n, dim, &mut rng(18)).scale(0.5);
    let index = QuantizedIndex::build(&dsq, &store, &db);
    let queries = randn(64, dim, &mut rng(19));
    let items = Some(((queries.rows() * n) as u64, "items"));
    for (label, on) in [("disabled", false), ("instrumented", true)] {
        lt_obs::set_enabled(on);
        case(&format!("serve_metrics/{label}"), items, || {
            black_box(adc_search_batch(&index, &queries, 10));
        });
        lt_obs::set_enabled(false);
    }
}

/// CRC32 throughput from a wire frame's size to an image's: the check
/// behind every image, checkpoint, WAL frame and wire frame.
fn crc() {
    let mut r = rng(20);
    for (label, len) in [("4KiB", 4usize << 10), ("256KiB", 256 << 10), ("4MiB", 4 << 20)] {
        let bytes: Vec<u8> = (0..len).map(|_| r.gen_range(0..256usize) as u8).collect();
        case(&format!("crc32/{label}"), Some((len as u64, "bytes")), || {
            black_box(crc32(black_box(&bytes)));
        });
    }
}

/// Loading an index image shaped like lt-stack's `scan-500k-u8` (n 500k,
/// M 8, K 16, d 64: 2 MB of pair-lane codes and 2 MB of norms): the CRC
/// footer check, the lane decode and the norms copy. Values do not change
/// the load's work, so the codes and norms are random.
fn deserialize() {
    let (n, m, k, d) = (500_000, 8, 16, 64);
    let mut r = rng(21);
    let codebooks = (0..m).map(|_| randn(k, d, &mut r).scale(0.3)).collect();
    let ids = (0..n * m).map(|_| r.gen_range(0..k) as u16).collect();
    let norms = (0..n).map(|_| r.gen_range(0.0f32..4.0)).collect();
    let codes = Codes::new(ids, m);
    let index = QuantizedIndex::from_parts(codebooks, codes, norms, Metric::NegSquaredL2, d, k);
    let image = serialize_index(&index);
    case("deserialize_index/500k_m8_k16_d64", Some((image.len() as u64, "bytes")), || {
        black_box(deserialize_index(black_box(&image)).expect("the image deserializes"));
    });
}

fn main() {
    // `cargo bench` passes `--bench`; a name argument runs only the
    // groups whose name contains it.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let groups: [(&str, fn()); 10] = [
        ("search", search),
        ("gemm", gemm),
        ("dsq_encode", dsq_encode),
        ("train_step", train_step),
        ("gemm_threads", gemm_threads),
        ("adc_batch_threads", adc_batch_threads),
        ("adc_scan", adc_scan),
        ("serve_metrics", serve_metrics),
        ("crc32", crc),
        ("deserialize_index", deserialize),
    ];
    println!("warm-up {WARMUP}, {REPS} timed repetitions per case; times are per iteration");
    for (name, run) in groups {
        if filter.as_deref().map_or(true, |f| name.contains(f)) {
            run();
        }
    }
}
