#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py            # all (about a minute)
    python3 perfbench/test_perfbench.py Smoke      # one class

Smoke runs every workload briefly in both modes and checks that every metric named in
BENCHMARK.json prints, with its unit, in the report and in the result line. Negative
corrupts the correctness reference and expects the check to fail. CountSelfCheck runs the
traced mode twice on one seed and expects every count metric to repeat exactly, so a later
change may claim a count difference as an exact count.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRIC = re.compile(r"(_per_block$|_ratio$|^net\.frames_per_block\.)")


def run(workload, trace, seed=1, seconds=0.6, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        report, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], report)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        text = "\n".join(report)
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The human-readable table prints the same metric with its unit.
            row = rf"\n\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)"
            self.assertRegex(text, row, m["name"])
        self.assertIn("correctness:", text)
        self.assertIn("context: ", text)
        context = json.loads(report[-1][len("context: "):])
        for key in ("nproc", "compiler", "build_type", "git_commit", "workers", "partitions",
                    "seed", "src_lines", "tracing_overhead_pct", "held_out_seed"):
            self.assertIn(key, context)
        if not trace:
            for name in ("block_p50_us", "block_p90_us", "tasks_per_s", "setup_s",
                         "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1)


class Negative(unittest.TestCase):
    def test_corrupted_reference_fails_the_check(self):
        for workload in ("lr-templates", "watersim-templates"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    report, result = run(workload, trace, extra=("--corrupt-reference",))
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertIn("FAIL", "\n".join(report))


class CountSelfCheck(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, 1, seed=3)
                _, second = run(workload, 1, seed=3)
                counts = [n for n in first["metrics"] if COUNT_METRIC.search(n)]
                self.assertGreater(len(counts), 10)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
