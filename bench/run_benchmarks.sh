#!/usr/bin/env bash
# Runs the Table 1-4 microbenchmarks (and the Fig 8-10, wire and recovery series) and writes
# BENCH_table{1,2,3,4}.json + BENCH_fig{8,9,10}.json + BENCH_wire.json + BENCH_recovery.json at
# the repo root, plus BENCH_src.json with the src/ line count (the code-size side of each
# sample), so every PR leaves a comparable perf sample behind (the paper's Tables 1-3 are
# the control-plane cost claims this reproduction tracks; Table 4 is this repo's
# pipelined-controller-loop series, DESIGN.md §9; Fig 8 carries the central
# per-task and serialized series, §8; Figs 9 and 10 are the paper's adaptation and
# migration timelines; the wire series is real-socket dispatch throughput over the TCP
# transport, §13).
#
# Usage:
#   bench/run_benchmarks.sh [extra google-benchmark flags...]
#       Regenerate every committed BENCH JSON (each written to a temp file and moved into
#       place only on success, so a crashing bench cannot leave a half-written JSON).
#   bench/run_benchmarks.sh --check
#       CI perf gate: rerun Table 2 (the canaries and the host calibration loop) into a
#       scratch dir and compare each canary's ratio to the calibration against the same
#       ratio in the committed BENCH_table2.json. Exits nonzero if a fresh ratio deviates
#       by more than BENCH_CHECK_TOLERANCE (default 0.15 = ±15%) in either direction — a
#       slowdown is a hot-path regression; a big speedup means the committed JSON is stale
#       and must be regenerated.
#
# The gate measures the code, not the host: a shared host's CPU share moves absolute
# times by far more than ±15% from minute to minute, and it moves a fixed calibration loop
# with the canary's shape and footprint (BM_HostCalibrationSweep) the same way, so most of
# the swing cancels in the ratio. Table 2 therefore always runs as TABLE2_FLAGS, the same
# way for the check as for the committed JSON: many short repetitions in random
# interleaved order, so slow and fast host periods land on canaries and calibration
# alike. The gated number is mean(canary) / mean(calibration) over the repetitions'
# per_task_us. Not the median: the canary's repetitions fall into a fast and a slow host
# mode, and a median jumps between the modes as their mix changes, while a mean follows
# the mix smoothly.
#
# The JSON goes through --benchmark_out (not --benchmark_format) because the table
# binaries print the paper's reference numbers on stdout first; the out-file stays clean.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

# Two gated canaries: the full-validation sweep (the hot instantiation path) and the
# steady-state serialized-batch assembly (the pre-encoded dispatch path, DESIGN.md §10).
CANARY_BENCHES="BM_InstantiateWorkerTemplateFullValidation BM_SerializedBatchAssembly"
CALIBRATION_BENCH="BM_HostCalibrationSweep"
TOLERANCE="${BENCH_CHECK_TOLERANCE:-0.15}"
TABLE2_FLAGS=(--benchmark_repetitions=40 --benchmark_min_time=0.05
              --benchmark_enable_random_interleaving=true)

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
  python3 - "$committed" "$fresh" "$TOLERANCE" "$CALIBRATION_BENCH" $CANARY_BENCHES <<'PY'
import json, statistics, sys

committed_path, fresh_path, tolerance, calibration = sys.argv[1:5]
canaries = sys.argv[5:]
tolerance = float(tolerance)

def mean_per_task(doc, path, bench):
    # One entry per repetition (run_type "iteration"); aggregates are recomputed here.
    values = [float(b["per_task_us"]) for b in doc["benchmarks"]
              if b["name"].split("/")[0] == bench and b.get("run_type") == "iteration"
              and "per_task_us" in b]
    if not values:
        sys.exit(f"{path}: benchmark '{bench}' with per_task_us not found "
                 "(regenerate the BENCH JSONs with bench/run_benchmarks.sh)")
    return statistics.mean(values), len(values)

def ratios(path):
    with open(path) as f:
        doc = json.load(f)
    base, _ = mean_per_task(doc, path, calibration)
    out = {}
    for canary in canaries:
        value, reps = mean_per_task(doc, path, canary)
        out[canary] = (value / base, value, reps)
    return out

committed = ratios(committed_path)
fresh = ratios(fresh_path)
failed = False
for canary in canaries:
    c_ratio, c_value, _ = committed[canary]
    f_ratio, f_value, reps = fresh[canary]
    drift = f_ratio / c_ratio - 1.0
    print(f"Table 2 canary ({canary}): ratio to {calibration} committed {c_ratio:.3f}, "
          f"fresh {f_ratio:.3f} (mean of {reps}), drift {drift:+.1%} "
          f"(tolerance ±{tolerance:.0%}); per_task_us committed {c_value:.3e}, "
          f"fresh {f_value:.3e}")
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
  echo "== table2_instantiate (perf-gate canaries) -> $CHECK_DIR/BENCH_table2.json"
  run_bench_json "$BUILD/bench/bench_table2_instantiate" "$CHECK_DIR/BENCH_table2.json" \
    "${TABLE2_FLAGS[@]}" "$@"
  check_canary "$CHECK_DIR/BENCH_table2.json"
  exit 0
fi

cmake -B "$BUILD" -S "$ROOT" -DNIMBUS_BUILD_BENCHMARKS=ON >/dev/null
cmake --build "$BUILD" -j"$(nproc)" \
  --target bench_table1_install bench_table2_instantiate bench_table3_edits \
  bench_table4_pipelined_loop bench_fig8_task_throughput bench_fig9_dynamic_adaptation \
  bench_fig10_migration bench_wire_throughput bench_recovery_latency >/dev/null

for bench in table1_install table2_instantiate table3_edits table4_pipelined_loop; do
  out="$ROOT/BENCH_${bench%%_*}.json"
  echo "== $bench -> $out"
  if [ "$bench" = table2_instantiate ]; then
    run_bench_json "$BUILD/bench/bench_${bench}" "$out" "${TABLE2_FLAGS[@]}" "$@"
  else
    run_bench_json "$BUILD/bench/bench_${bench}" "$out" "$@"
  fi
done

# Fig 8 writes its own JSON (plain driver, no google-benchmark harness) and exits nonzero
# if either the paper shape or the central-serialized >=1.95x per-task claim fails.
echo "== fig8_task_throughput -> $ROOT/BENCH_fig8.json"
"$BUILD/bench/bench_fig8_task_throughput" --json "$ROOT/BENCH_fig8.json.tmp"
mv "$ROOT/BENCH_fig8.json.tmp" "$ROOT/BENCH_fig8.json"

# Figs 9 and 10 write their own JSON too (virtual clock) and exit nonzero if the paper's
# shape fails: the 2x-after-eviction and back-to-band-after-restore claims (Fig 9), and
# edits finishing >1.5x sooner than a full reinstall (Fig 10).
for fig in fig9_dynamic_adaptation fig10_migration; do
  out="$ROOT/BENCH_${fig%%_*}.json"
  echo "== $fig -> $out"
  "$BUILD/bench/bench_${fig}" --json "$out.tmp"
  mv "$out.tmp" "$out"
done

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
# perfbench reports as `src_lines`; CI's invariants job checks the committed file).
echo "== src/ line count -> $ROOT/BENCH_src.json"
python3 "$ROOT/scripts/src_lines.py" > "$ROOT/BENCH_src.json.tmp"
mv "$ROOT/BENCH_src.json.tmp" "$ROOT/BENCH_src.json"
