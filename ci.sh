#!/usr/bin/env bash
# Local CI: build, test, lint. Run from the repo root.
#
# The test suite runs twice — serial (LT_THREADS=1) and parallel
# (LT_THREADS=4) — because every lt-runtime kernel must be bitwise
# deterministic with respect to the thread count; a result that differs
# between the two runs is a determinism bug, not flakiness. The two runs
# double as the scan-backend matrix: tests/scan_engine.rs pins the u8
# backend (full-rerank bitwise identity, recall@10, shard x thread
# invariance) at both widths. Both runs and the lint cover the whole
# workspace: a bare `cargo test` at the root builds only the root
# package's tests, never a member crate's unit tests.
set -euo pipefail

# The workspace is std-only: no manifest may name a registry crate, here or
# on a machine that could fetch one. `cargo metadata` lists every package
# the workspace resolves, and only a registry package has a `source`.
cargo metadata --offline --format-version 1 | python3 -c '
import json, sys
bad = [p["name"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
sys.exit("registry dependencies: " + ", ".join(bad) if bad else 0)'

cargo build --release --workspace
LT_THREADS=1 cargo test -q --workspace
LT_THREADS=4 cargo test -q --workspace
# The two unsafe kernels' unit tests once more in the release profile, so
# each is checked against its oracle as it is built for serving (the test
# profile keeps debug assertions at opt-level 2): lt-linalg's AVX2
# pair-lane scan kernel against the scalar kernel, and lightlt-core's
# PCLMULQDQ CRC32 kernel against slice-by-8 and the byte loop.
cargo test -q --release -p lt-linalg --lib
cargo test -q --release -p lightlt-core --lib checksum
cargo clippy --workspace --all-targets -- -D warnings

# The lt-stack benchmark (BENCHMARK.json) is a package of its own, outside
# the workspace. Its tests drive every library function it calls, so a
# change that breaks one fails here instead of in a benchmark run.
cargo test --offline --manifest-path crates/bench/src/bin/lt-stack/Cargo.toml

# Benchmarks must keep compiling even when they are not run.
cargo bench --no-run --workspace

# Smoke the ADC benchmark runner on a tiny grid. Writes under target/ so
# the tracked baseline (BENCH_adc.json, full grid) is never overwritten by
# smoke numbers — regenerate that one deliberately with
# `cargo run -p lt-bench --release -- adc`.
cargo run -p lt-bench --release -- adc --smoke --out target/BENCH_adc_smoke.json
# The smoke grid must measure the quantized engine alongside f32, and the
# streaming top-10 scan serving runs on both.
grep -q '"engine_u8_scan_items_per_s"' target/BENCH_adc_smoke.json
grep -q '"u8_recall_at_10"' target/BENCH_adc_smoke.json
grep -q '"engine_topk_items_per_s"' target/BENCH_adc_smoke.json
grep -q '"engine_u8_topk_items_per_s"' target/BENCH_adc_smoke.json
# ... and trace the coarse-routing frontier (nprobe sweep) with its
# throughput and tail-recall columns.
grep -q '"routed_scan_items_per_s"' target/BENCH_adc_smoke.json
grep -q '"routed_recall_at_10"' target/BENCH_adc_smoke.json
grep -q '"routed_tail_recall_at_10"' target/BENCH_adc_smoke.json

# Serving smoke: synthesize a small index image, serve it in the
# background (with a JSONL event trace), run a
# stats/upsert/search/metrics/snapshot round trip over TCP through the CLI
# client, then stop the server with a shutdown request and wait for a
# clean exit. (The lt-stack benchmark, BENCHMARK.json, measures serving
# under load; this covers the CLI wiring end to end.) `query --metrics
# --check` exits nonzero unless the server recorded at least one search
# and its service-time quantiles are finite with p50 <= p95 <= p99. The
# forced snapshot must land on disk and in the event trace.
SMOKE_DIR=target/serve_smoke
SERVE_ADDR=127.0.0.1:17893
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
cargo run --release --example synth_index -- \
  --out "$SMOKE_DIR/index.bin" --n 500 --m 3 --k 32 --d 8
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --addr "$SERVE_ADDR" --snapshot "$SMOKE_DIR/live.snap" \
  --events "$SMOKE_DIR/events.jsonl" &
SERVE_PID=$!
target/release/lightlt query --addr "$SERVE_ADDR" --op stats
target/release/lightlt query --addr "$SERVE_ADDR" --op upsert --dim 8 \
  --vector "0.1,0.2,-0.1,0.3,0.0,-0.2,0.1,0.4"
target/release/lightlt query --addr "$SERVE_ADDR" --op search --k 5 \
  --vector "0.1,0.2,-0.1,0.3,0.0,-0.2,0.1,0.4"
target/release/lightlt query --addr "$SERVE_ADDR" --metrics --check
target/release/lightlt query --addr "$SERVE_ADDR" --op snapshot
target/release/lightlt query --addr "$SERVE_ADDR" --op shutdown
wait "$SERVE_PID"
test -f "$SMOKE_DIR/live.snap" # the forced snapshot must exist on disk
test -s "$SMOKE_DIR/events.jsonl" # the event trace must be non-empty
grep -q '"type":"snapshot"' "$SMOKE_DIR/events.jsonl"

# Crash-recovery smoke: serve the same index in WAL mode, acknowledge
# three upserts over TCP, then kill -9 the server and restart it from the
# same WAL directory. The restarted server must report the acked WAL seq
# (wal seq 3) and assign the next upsert the next id — i.e. all 500 base
# items plus the 3 acknowledged upserts survived the kill. (The in-process
# crash-point matrix lives in tests/wal_recovery.rs; this covers the CLI
# flags and a literal SIGKILL end to end.)
WAL_DIR=$SMOKE_DIR/wal
WAL_ADDR=127.0.0.1:17894
WAL_VEC="0.1,0.2,-0.1,0.3,0.0,-0.2,0.1,0.4"
rm -rf "$WAL_DIR"
mkdir -p "$WAL_DIR"
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --wal-dir "$WAL_DIR" --fsync-policy always --addr "$WAL_ADDR" &
WAL_PID=$!
for _ in 1 2 3; do
  target/release/lightlt query --addr "$WAL_ADDR" --op upsert --dim 8 \
    --vector "$WAL_VEC"
done
kill -9 "$WAL_PID"
wait "$WAL_PID" || true # SIGKILL: a non-zero exit is the point
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --wal-dir "$WAL_DIR" --fsync-policy always --addr "$WAL_ADDR" &
WAL_PID=$!
target/release/lightlt query --addr "$WAL_ADDR" --op stats \
  | grep -E 'wal seq +3$' # every acked mutation recovered
target/release/lightlt query --addr "$WAL_ADDR" --op upsert --dim 8 \
  --vector "$WAL_VEC" | grep -F 'upserted ids [503, 504)'
target/release/lightlt query --addr "$WAL_ADDR" --op shutdown
wait "$WAL_PID"

# Sharded smoke: the same kill -9 drill with the index split into 4
# modulo-routed shards. Sharding is semantically invisible (results are
# bitwise-identical at any shard count), so what this pins is the CLI
# flag, sharded recovery, and the stats rows: the restarted server must
# report 4 shards whose item counts partition the recovered total
# (503 items -> 126/126/126/125 under the modulo routing rule).
SHARD_DIR=$SMOKE_DIR/wal_sharded
SHARD_ADDR=127.0.0.1:17895
rm -rf "$SHARD_DIR"
mkdir -p "$SHARD_DIR"
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --wal-dir "$SHARD_DIR" --fsync-policy always --shards 4 --addr "$SHARD_ADDR" &
SHARD_PID=$!
for _ in 1 2 3; do
  target/release/lightlt query --addr "$SHARD_ADDR" --op upsert --dim 8 \
    --vector "$WAL_VEC"
done
target/release/lightlt query --addr "$SHARD_ADDR" --op search --k 5 \
  --vector "$WAL_VEC"
kill -9 "$SHARD_PID"
wait "$SHARD_PID" || true
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --wal-dir "$SHARD_DIR" --fsync-policy always --shards 4 --addr "$SHARD_ADDR" &
SHARD_PID=$!
SHARD_STATS=$(target/release/lightlt query --addr "$SHARD_ADDR" --op stats)
echo "$SHARD_STATS" | grep -E 'wal seq +3$'       # every acked mutation recovered
echo "$SHARD_STATS" | grep -E 'shards +4$'
echo "$SHARD_STATS" | grep -E 'shard 0 items +126$'
echo "$SHARD_STATS" | grep -E 'shard 3 items +125$'
target/release/lightlt query --addr "$SHARD_ADDR" --op shutdown
wait "$SHARD_PID"

# Quantized-backend smoke: serve the same index through the u8 scan
# backend (train-free synth_index image -> serve -> query). The u8 engine
# must answer searches, pass the metrics self-check, and show its own
# scan counters in the Prometheus dump — proof the low-precision path is
# actually the one serving. The server also mirrors every completed trace
# to a Chrome trace_event file (--trace-out): after shutdown the file
# must be valid JSON and contain at least one shard-scan and one rerank
# span — the u8 backend's re-rank pass showing up in the waterfall.
# Nothing mutates the index, so the snapshot it writes before shutdown
# must be byte-identical to the image it loaded: load then save is the
# identity on the image format (K = 32 packs 5-bit ids and n = 500, so
# the level boundaries fall mid-byte).
U8_ADDR=127.0.0.1:17896
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --backend u8:16 --addr "$U8_ADDR" --trace-out "$SMOKE_DIR/trace.json" \
  --snapshot "$SMOKE_DIR/u8.snap" &
U8_PID=$!
target/release/lightlt query --addr "$U8_ADDR" --op search --k 5 \
  --vector "$WAL_VEC"
target/release/lightlt query --addr "$U8_ADDR" --metrics --check
target/release/lightlt query --addr "$U8_ADDR" --metrics \
  | grep -q 'scan_u8_scans'
target/release/lightlt query --addr "$U8_ADDR" --op snapshot
target/release/lightlt query --addr "$U8_ADDR" --op shutdown
wait "$U8_PID"
cmp "$SMOKE_DIR/index.bin" "$SMOKE_DIR/u8.snap"
python3 -c "import json; json.load(open('$SMOKE_DIR/trace.json'))"
grep -q '"name":"shard-scan"' "$SMOKE_DIR/trace.json"
grep -q '"name":"rerank"' "$SMOKE_DIR/trace.json"

# Pair-lane smoke: a K = 16 image with odd n and odd M, stored one byte
# per level pair (n = 501 and M = 3: level 1 starts mid-byte in the image,
# and the last pair lane holds level 2 alone). The un-reranked u8 backend
# answers the search with the pair-lane kernel (AVX2 where the CPU has it,
# and the scalar fused pair tables for the 501 % 32 = 21-item tail), and
# the snapshot written before shutdown must be byte-identical to the
# loaded image.
PAIR_ADDR=127.0.0.1:17898
cargo run --release --example synth_index -- \
  --out "$SMOKE_DIR/pairs.bin" --n 501 --m 3 --k 16 --d 8
target/release/lightlt serve --index "$SMOKE_DIR/pairs.bin" \
  --backend u8 --addr "$PAIR_ADDR" --snapshot "$SMOKE_DIR/pairs.snap" &
PAIR_PID=$!
target/release/lightlt query --addr "$PAIR_ADDR" --op search --k 5 \
  --vector "$WAL_VEC"
target/release/lightlt query --addr "$PAIR_ADDR" --op snapshot
target/release/lightlt query --addr "$PAIR_ADDR" --op shutdown
wait "$PAIR_PID"
cmp "$SMOKE_DIR/pairs.bin" "$SMOKE_DIR/pairs.snap"

# Routed serving smoke: the same synth image served non-exhaustively — a
# 16-partition coarse quantizer trained at startup, 4 partitions probed
# per query — composed with the u8 scan backend. Stats must report the
# routing parameters, the metrics self-check must pass, and the
# Prometheus dump must show the routing counters (probes recorded means
# the routed path, not the exhaustive one, answered the searches) and the
# start-up training time (`route.train_us`).
ROUTE_ADDR=127.0.0.1:17897
target/release/lightlt serve --index "$SMOKE_DIR/index.bin" \
  --route 16:4 --backend u8:16 --addr "$ROUTE_ADDR" &
ROUTE_PID=$!
ROUTE_STATS=$(target/release/lightlt query --addr "$ROUTE_ADDR" --op stats)
echo "$ROUTE_STATS" | grep -E 'route nlist +16$'
echo "$ROUTE_STATS" | grep -E 'route nprobe +4$'
target/release/lightlt query --addr "$ROUTE_ADDR" --op search --k 5 \
  --vector "$WAL_VEC"
target/release/lightlt query --addr "$ROUTE_ADDR" --metrics --check
target/release/lightlt query --addr "$ROUTE_ADDR" --metrics \
  | grep -q 'route_probes'
target/release/lightlt query --addr "$ROUTE_ADDR" --metrics \
  | grep -q 'route_train_us'
# Routed searches tag their trace with the head/tail quartile of the
# top-1 result's partition; the traces waterfall must show the tag.
target/release/lightlt query --addr "$ROUTE_ADDR" --op traces \
  | grep -Eq 'tail_q [0-3]'
target/release/lightlt query --addr "$ROUTE_ADDR" --op shutdown
wait "$ROUTE_PID"

# Routed eval smoke: train a tiny model on a scaled-down Table-I split,
# bake its index image, and check that `eval --route` (which trains the
# router from the image's codes) reports the tail-quartile recall of the
# non-exhaustive search against the exhaustive reference — the guarantee
# this subsystem is named for.
EVAL_DIR=target/route_eval_smoke
rm -rf "$EVAL_DIR"
mkdir -p "$EVAL_DIR"
target/release/lightlt generate --dataset cifar100 --if 50 --dim 16 \
  --scale 0.05 --out "$EVAL_DIR/split.ltd"
# Training is thread-count deterministic end to end, through the CLI and
# the bundle writer: models trained at one and at four runtime threads
# (set through the environment, so the stored configs are equal) must be
# byte-identical.
for t in 1 4; do
  LT_THREADS=$t target/release/lightlt train --data "$EVAL_DIR/split.ltd" --epochs 2 \
    --codebooks 2 --codewords 16 --embed-dim 8 --out "$EVAL_DIR/model-t$t.ltm"
done
cmp "$EVAL_DIR/model-t1.ltm" "$EVAL_DIR/model-t4.ltm"
MODEL=$EVAL_DIR/model-t1.ltm
# Encoding is thread-count deterministic end to end, through the CLI and
# the image writer: images baked at one and at four runtime threads must
# be byte-identical.
for t in 1 4; do
  LT_THREADS=$t target/release/lightlt index --model "$MODEL" \
    --data "$EVAL_DIR/split.ltd" --out "$EVAL_DIR/index-t$t.bin"
done
cmp "$EVAL_DIR/index-t1.bin" "$EVAL_DIR/index-t4.bin"
target/release/lightlt eval --model "$MODEL" \
  --index "$EVAL_DIR/index-t1.bin" --data "$EVAL_DIR/split.ltd" \
  --route 8:2 | grep -E 'routed recall@10 .* tail-quartile'
# Router training is thread-count deterministic end to end through the
# CLI: `eval --route` at one and at four runtime threads must print the
# same report. It routes over 32 partitions so that an assignment pass
# (2500 items x 32 centroids x 2 codebooks = 160k lookups) is past the
# 65,536 below which it stays on the calling thread; at 8 partitions both
# runs would execute the same serial code.
for t in 1 4; do
  LT_THREADS=$t target/release/lightlt eval --model "$MODEL" \
    --index "$EVAL_DIR/index-t1.bin" --data "$EVAL_DIR/split.ltd" \
    --route 32:4 > "$EVAL_DIR/eval-r32-t$t.txt"
done
diff "$EVAL_DIR/eval-r32-t1.txt" "$EVAL_DIR/eval-r32-t4.txt"

# Bad-input smoke: a user-supplied `.ltd` whose header promises more data
# than any file can hold (rows x cols overflows) must end in a clean error
# (exit 1, `error: reading ...`), never in a panic (exit 101).
BAD_LTD=$SMOKE_DIR/overflow.ltd
printf 'LTDATA1\000\001\000\000\000\000\000\000\000\000\000\000\200\002\000\000\000' \
  > "$BAD_LTD"
test "$(wc -c < "$BAD_LTD")" -eq 24
BAD_STATUS=0
target/release/lightlt train --data "$BAD_LTD" --out "$SMOKE_DIR/bad.ltm" \
  2> "$SMOKE_DIR/bad.err" || BAD_STATUS=$?
test "$BAD_STATUS" -eq 1
grep -q "^error: reading $BAD_LTD" "$SMOKE_DIR/bad.err"
