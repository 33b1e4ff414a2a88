#!/usr/bin/env bash
# Runs the Table 1-4 microbenchmarks (and the Fig 8, wire and recovery series) and writes
# BENCH_table{1,2,3,4}.json + BENCH_fig8.json + BENCH_wire.json + BENCH_recovery.json at
# the repo root, plus BENCH_src.json with the src/ line count (the code-size side of each
# sample), so every PR leaves a comparable perf sample behind (the paper's Tables 1-3 are
# the control-plane cost claims this reproduction tracks; Table 4 is this repo's
# shard-scaling series for the runtime engine, DESIGN.md §7; Fig 8 carries the central
# per-task and serialized series, §8; the wire series is real-socket dispatch throughput
# over the TCP transport, §13).
#
# Usage:
#   bench/run_benchmarks.sh [extra google-benchmark flags...]
#       Regenerate every committed BENCH JSON (each written to a temp file and moved into
#       place only on success, so a crashing bench cannot leave a half-written JSON).
#   bench/run_benchmarks.sh --check
#       CI perf gate: rerun the Table 2 full-validation canary into a scratch dir and
#       compare its per_task_us against the committed BENCH_table2.json. Exits nonzero if
#       the fresh value deviates by more than BENCH_CHECK_TOLERANCE (default 0.15 = ±15%)
#       in either direction — a slowdown is a hot-path regression; a big speedup means the
#       committed JSON is stale and must be regenerated.
#
# The JSON goes through --benchmark_out (not --benchmark_format) because the table
# binaries print the paper's reference numbers on stdout first; the out-file stays clean.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

# Two gated canaries: the full-validation sweep (the hot instantiation path) and the
# steady-state serialized-batch assembly (the pre-encoded dispatch path, DESIGN.md §10).
CANARY_BENCHES="BM_InstantiateWorkerTemplateFullValidation BM_SerializedBatchAssembly"
TOLERANCE="${BENCH_CHECK_TOLERANCE:-0.15}"

# A failing bench must name itself: with `set -e` alone the script dies silently mid-loop
# and CI logs show only an exit code.
trap 'status=$?; [ "$status" -ne 0 ] && echo "run_benchmarks.sh: FAILED (exit $status)" >&2; exit $status' EXIT

run_bench_json() {
  # run_bench_json <binary> <out.json> [flags...] — atomic: write to tmp, move on success.
  local binary="$1" out="$2"
  shift 2
  local tmp="${out}.tmp"
  "$binary" --benchmark_out="$tmp" --benchmark_out_format=json "$@"
  mv "$tmp" "$out"
}

check_canary() {
  local fresh="$1" committed="$ROOT/BENCH_table2.json"
  python3 - "$committed" "$fresh" "$TOLERANCE" $CANARY_BENCHES <<'PY'
import json, sys

committed_path, fresh_path, tolerance = sys.argv[1:4]
canaries = sys.argv[4:]
tolerance = float(tolerance)

def canary_value(path, canary):
    with open(path) as f:
        doc = json.load(f)
    for bench in doc["benchmarks"]:
        # MinTime-pinned benchmarks report as "<name>/min_time:2.000".
        if bench["name"].split("/")[0] == canary and "per_task_us" in bench:
            return float(bench["per_task_us"])
    sys.exit(f"{path}: canary benchmark '{canary}' with per_task_us not found")

failed = False
for canary in canaries:
    committed = canary_value(committed_path, canary)
    fresh = canary_value(fresh_path, canary)
    drift = fresh / committed - 1.0
    print(f"Table 2 canary ({canary}): committed {committed:.3e}, fresh {fresh:.3e}, "
          f"drift {drift:+.1%} (tolerance ±{tolerance:.0%})")
    if abs(drift) > tolerance:
        kind = "REGRESSION" if drift > 0 else "STALE BASELINE (regenerate BENCH JSONs)"
        print(f"FAIL: {canary} drift beyond tolerance — {kind}", file=sys.stderr)
        failed = True
if failed:
    sys.exit(1)
print("OK: all canaries within tolerance")
PY
}

if [ "${1:-}" = "--check" ]; then
  shift
  cmake -B "$BUILD" -S "$ROOT" -DNIMBUS_BUILD_BENCHMARKS=ON >/dev/null
  cmake --build "$BUILD" -j"$(nproc)" --target bench_table2_instantiate >/dev/null
  CHECK_DIR="$BUILD/bench-check"
  mkdir -p "$CHECK_DIR"
  echo "== table2_instantiate (perf-gate canary) -> $CHECK_DIR/BENCH_table2.json"
  run_bench_json "$BUILD/bench/bench_table2_instantiate" "$CHECK_DIR/BENCH_table2.json" "$@"
  check_canary "$CHECK_DIR/BENCH_table2.json"
  exit 0
fi

cmake -B "$BUILD" -S "$ROOT" -DNIMBUS_BUILD_BENCHMARKS=ON >/dev/null
cmake --build "$BUILD" -j"$(nproc)" \
  --target bench_table1_install bench_table2_instantiate bench_table3_edits \
  bench_table4_sharding bench_fig8_task_throughput bench_wire_throughput \
  bench_recovery_latency >/dev/null

for bench in table1_install table2_instantiate table3_edits table4_sharding; do
  out="$ROOT/BENCH_${bench%%_*}.json"
  echo "== $bench -> $out"
  run_bench_json "$BUILD/bench/bench_${bench}" "$out" "$@"
done

# Fig 8 writes its own JSON (plain driver, no google-benchmark harness) and exits nonzero
# if either the paper shape or the central-serialized >=1.95x per-task claim fails.
echo "== fig8_task_throughput -> $ROOT/BENCH_fig8.json"
"$BUILD/bench/bench_fig8_task_throughput" --json "$ROOT/BENCH_fig8.json.tmp"
mv "$ROOT/BENCH_fig8.json.tmp" "$ROOT/BENCH_fig8.json"

# The wire bench runs the control plane over real loopback sockets and exits nonzero if
# the dispatch-strategy ordering (serialized >= per-task) fails.
echo "== wire_throughput -> $ROOT/BENCH_wire.json"
"$BUILD/bench/bench_wire_throughput" --json "$ROOT/BENCH_wire.json.tmp"
mv "$ROOT/BENCH_wire.json.tmp" "$ROOT/BENCH_wire.json"

# The recovery bench kills a worker over TCP and gates detection latency from both sides:
# above one heartbeat timeout (real silence elapsed) and below the miss window + slack.
echo "== recovery_latency -> $ROOT/BENCH_recovery.json"
"$BUILD/bench/bench_recovery_latency" --json "$ROOT/BENCH_recovery.json.tmp"
mv "$ROOT/BENCH_recovery.json.tmp" "$ROOT/BENCH_recovery.json"

# Code size next to the perf numbers: lines of every .h/.cc under src/ (the same count
# perfbench reports as `src_lines`).
echo "== src/ line count -> $ROOT/BENCH_src.json"
python3 - "$ROOT/src" > "$ROOT/BENCH_src.json.tmp" <<'PY'
import json, pathlib, sys

files = sorted(p for p in pathlib.Path(sys.argv[1]).rglob("*")
               if p.suffix in (".h", ".cc") and p.is_file())
lines = sum(sum(1 for _ in open(p, "rb")) for p in files)
print(json.dumps({"src_files": len(files), "src_lines": lines}, indent=2))
PY
mv "$ROOT/BENCH_src.json.tmp" "$ROOT/BENCH_src.json"
