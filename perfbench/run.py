#!/usr/bin/env python3
"""Wall-clock control-plane benchmark: one workload per invocation, over loopback TCP.

    python3 perfbench/run.py --workload lr-templates --seed 1 --seconds 3 --trace 0

Builds perfbench_driver (the repository's `nimbus` library plus perfbench/driver/) into
.bench_build/perfbench under the repository root, runs the workload in its own process,
passes its report through, prints a context block, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 is the separate traced
run and prints the per-layer ledger. BENCHMARK.json at the repository root names both
metric sets; the result is checked against it. See perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
DEADLINE_S = 170  # the whole invocation, build excluded

# Every workload has a default seed and a held-out seed. A claimed gain must also hold on
# the held-out seed, which is not used while the change is being written.
WORKLOADS = {
    "lr-templates": {"default_seed": 1, "held_out_seed": 7919},
    "lr-central-pertask": {"default_seed": 1, "held_out_seed": 7919},
    "lr-central-serialized": {"default_seed": 1, "held_out_seed": 7919},
    "watersim-templates": {"default_seed": 1, "held_out_seed": 7919},
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no nimbus sources next to {HERE.name}/ (expected ../CMakeLists.txt, ../src)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout is the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    """(name -> unit) for this mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def src_lines():
    total = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".h", ".cc") and path.is_file():
            with open(path, "rb") as f:
                total += sum(1 for _ in f)
    return total


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="input seed (default: the workload's default)")
    p.add_argument("--seconds", type=float, default=3.0, help="measured quiet wall time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-reference", action="store_true",
                   help="flip the correctness reference (negative test of the checker)")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    seeds = WORKLOADS[args.workload]
    seed = seeds["default_seed"] if args.seed is None else args.seed
    build()
    expected = expected_metrics(args.trace)

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    started = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"driver exited with code {run.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail(f"metric set differs from BENCHMARK.json: got {sorted(got)}")

    for line in lines[:-1]:
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    context = dict(result["context"])
    context.update({
        "workload": args.workload,
        "default_seed": seeds["default_seed"],
        "held_out_seed": seeds["held_out_seed"],
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "error_rate": failed / attempted if attempted else 1.0,
        "wall_s": round(time.monotonic() - started, 3),
        "tracing_overhead_pct": (metrics["tracing_overhead_pct"]["value"] if args.trace
                                 else "n/a: tracing off; the --trace 1 run measures it"),
    })
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
