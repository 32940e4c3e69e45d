#!/usr/bin/env python3
"""Smoke test of the drfbench benchmark.

Runs every workload at tiny size, untraced and traced, through the same
entry point as the benchmark (run.py), and asserts that:

  - the run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed, metrics;
  - every output check passed (correct is true, attempted >= 1,
    failed is 0);
  - every metric BENCHMARK.json names for that mode is emitted, finite,
    and carries the unit BENCHMARK.json gives it, and no other metric is.

Usage (from the repository root; the first run builds, ~1 min):

    python3 drfbench/smoke_test.py
"""

import json
import math
import os
import shutil
import subprocess
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def run_bench(self, workload, trace):
        cmd = list(self.spec["command"]) + [
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, "no output")
        return json.loads(lines[-1]), proc.stderr

    def check(self, workload, trace):
        result, stderr = self.run_bench(workload, trace)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], stderr[-3000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, stderr[-3000:])
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_missing_sources_fail_without_result(self):
        # A directory holding only the benchmark must exit non-zero
        # without printing a result line.
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "drfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = list(self.spec["command"]) + [
                "--workload", "soak", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
