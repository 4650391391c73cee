#!/usr/bin/env python3
"""Harness tests for the esperf end-to-end benchmark.

    python3 perfbench/test_harness.py

Runs perfbench/run.py at tiny sizes (so the whole file takes well under a
minute once the runner is built) and checks:
  - the output schema and the metric names and units of BENCHMARK.json, for
    every workload on --trace 0 and for the per-layer ledger on --trace 1;
  - that a stream-block drop probability makes sp_c_online report failed
    operations and exit non-zero, so the failure count cannot silently
    stick at zero.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY = ["--seconds", "0", "--iterations", "20", "--blocks", "2"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "3", "--trace", str(trace)]
    out = subprocess.run(cmd + TINY + list(extra), cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out


class Schema(unittest.TestCase):
    def check(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_every_workload(self):
        spec = load_spec()
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, out = run(w["name"])
                self.assertEqual(code, 0, out.stderr)
                self.check(result, spec["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_ledger(self):
        spec = load_spec()
        code, result, out = run("sp_c_online", trace=1)
        self.assertEqual(code, 0, out.stderr)
        self.check(result, spec["per_layer"])
        self.assertIn("ledger.unattributed_cpu_s", out.stdout)
        self.assertIn("trace overhead", out.stdout)
        m = result["metrics"]
        self.assertEqual(m["instrument.events"]["value"],
                         m["analysis.events_unpacked"]["value"])
        self.assertGreater(m["ledger.overhead_pct"]["value"], 0)


class FailureAccounting(unittest.TestCase):
    def test_link_drops_are_counted_as_failed_ops(self):
        code, result, out = run("sp_c_online", extra=["--link-drop", "0.3"])
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result, out.stderr)
        self.assertIs(result["correct"], False)
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
