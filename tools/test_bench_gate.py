#!/usr/bin/env python3
"""Unit tests of tools/bench_gate.py: the gate must fail on a vanished
timing metric, a vanished value tripwire, a planted slowdown and a planted
telemetry overhead, and pass an unchanged run.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")

BASE_CASE = {"scenario": "solver_block", "edge": 1500,
             "a_seconds": 0.20, "b_seconds": 0.30, "c_seconds": 0.40,
             "amd_factor_nnz": 210486}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, case):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump({"bench": "gate_test", "cases": [case]}, f)
        return path

    def gate(self, current):
        """Gate `current` against BASE_CASE; returns (exit code, output)."""
        result = subprocess.run(
            [sys.executable, GATE, self.write("base.json", BASE_CASE),
             self.write("current.json", current), "--max-slowdown", "1.25",
             "--abs-floor", "0.01"],
            capture_output=True, text=True)
        return result.returncode, result.stdout + result.stderr

    def test_unchanged_run_passes(self):
        code, out = self.gate(dict(BASE_CASE))
        self.assertEqual(code, 0, out)
        self.assertIn("bench gate passed", out)

    def test_missing_timing_metric_fails(self):
        current = dict(BASE_CASE)
        del current["c_seconds"]
        code, out = self.gate(current)
        self.assertEqual(code, 1, out)
        self.assertIn("c_seconds: missing or non-numeric", out)
        self.assertIn("solver_block", out)

    def test_non_numeric_timing_metric_fails(self):
        current = dict(BASE_CASE, c_seconds="n/a")
        code, out = self.gate(current)
        self.assertEqual(code, 1, out)
        self.assertIn("c_seconds: missing or non-numeric", out)

    def test_missing_value_tripwire_fails(self):
        current = dict(BASE_CASE)
        del current["amd_factor_nnz"]
        code, out = self.gate(current)
        self.assertEqual(code, 1, out)
        self.assertIn("amd_factor_nnz: missing or non-numeric", out)

    def test_planted_slowdown_fails(self):
        current = dict(BASE_CASE, c_seconds=1.5 * BASE_CASE["c_seconds"])
        code, out = self.gate(current)
        self.assertEqual(code, 1, out)
        self.assertIn("c_seconds", out)
        self.assertIn("REGRESSION", out)

    def test_planted_telemetry_overhead_fails(self):
        # 20% fully-enabled overhead, 0.2 s of excess above the 0.01 s floor.
        current = dict(BASE_CASE, telemetry_disabled_seconds=1.0,
                       telemetry_enabled_seconds=1.2, telemetry_overhead_ratio=1.2)
        code, out = self.gate(current)
        self.assertEqual(code, 1, out)
        self.assertIn("telemetry_overhead_ratio 1.200 exceeds", out)

    def test_no_telemetry_overhead_passes(self):
        current = dict(BASE_CASE, telemetry_disabled_seconds=1.0,
                       telemetry_enabled_seconds=1.0, telemetry_overhead_ratio=1.0)
        code, out = self.gate(current)
        self.assertEqual(code, 0, out)
        self.assertIn("telemetry overhead: ratio 1.000", out)


if __name__ == "__main__":
    unittest.main()
