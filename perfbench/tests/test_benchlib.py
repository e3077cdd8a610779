"""Self-tests of the benchmark definition, comparison and checks.

  python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402

WORKLOAD_NAMES = [w["name"] for w in benchlib.WORKLOADS]


def synthetic_runs():
    """Five runs per workload with a little spread around fixed medians."""
    runs = {}
    for w, workload in enumerate(WORKLOAD_NAMES):
        runs[workload] = []
        for r in range(5):
            jitter = 1.0 + 0.01 * (r - 2)
            runs[workload].append({
                m["name"]: {"value": (10.0 + w + i) * jitter, "unit": m["unit"]}
                for i, m in enumerate(benchlib.END_TO_END)})
    return runs


def program_record(workload):
    """A perfbench_workload result that passes every check."""
    return {
        "attempted": 12, "failed": 0,
        "metrics": {m["name"]: {"value": 1.0, "samples": 12} for m in benchlib.END_TO_END},
        "facts": {"rom_err_pct": 0.5 * benchlib.ERR_LIMIT_PCT[workload]},
        "checks": {"fresh_bitwise": {"ok": True, "detail": "rows equal"}},
    }


class CompareTest(unittest.TestCase):
    def test_identical_runs_report_no_change(self):
        verdicts = benchlib.compare(synthetic_runs(), synthetic_runs())
        self.assertEqual(len(verdicts), len(WORKLOAD_NAMES) * len(benchlib.END_TO_END))
        self.assertEqual({v["verdict"] for v in verdicts}, {"no change"})

    def test_metric_one_and_a_half_times_worse_is_named_as_regression(self):
        for workload, metric in (("size_sweep_cold", "query_p50_ms"),
                                 ("fatigue_sweep_warm", "queries_per_s")):
            better = next(m["better"] for m in benchlib.END_TO_END if m["name"] == metric)
            change = synthetic_runs()
            for run in change[workload]:
                if better == "lower":
                    run[metric]["value"] *= 1.5
                else:
                    run[metric]["value"] /= 1.5
            regressions = [v for v in benchlib.compare(synthetic_runs(), change)
                           if v["verdict"] == "regression"]
            self.assertEqual([(v["workload"], v["metric"]) for v in regressions],
                             [(workload, metric)])

    def test_improvement_beyond_bound_is_not_a_regression(self):
        change = synthetic_runs()
        for run in change["table1_p10"]:
            run["query_p50_ms"]["value"] /= 1.5
        verdicts = {(v["workload"], v["metric"]): v["verdict"]
                    for v in benchlib.compare(synthetic_runs(), change)}
        self.assertEqual(verdicts[("table1_p10", "query_p50_ms")], "improvement")
        self.assertNotIn("regression", verdicts.values())

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        parent = synthetic_runs()
        for r, run in enumerate(parent["table1_p10"]):
            run["peak_rss_mb"]["value"] *= 1.0 + 0.2 * r
        verdicts = {(v["workload"], v["metric"]): v["verdict"]
                    for v in benchlib.compare(parent, synthetic_runs())}
        self.assertEqual(verdicts[("table1_p10", "peak_rss_mb")], "unresolved")


class CheckTest(unittest.TestCase):
    def test_valid_record_passes(self):
        for workload in WORKLOAD_NAMES:
            self.assertEqual(benchlib.check_result(workload, program_record(workload), False), [])

    def test_perturbed_rom_error_fails_the_check(self):
        for workload in WORKLOAD_NAMES:
            record = program_record(workload)
            record["facts"]["rom_err_pct"] = 1.5 * benchlib.ERR_LIMIT_PCT[workload]
            failures = benchlib.check_result(workload, record, False)
            self.assertEqual(len(failures), 1)
            self.assertTrue(failures[0].startswith("rom_err_pct"))

    def test_failed_program_check_and_missing_metric_fail(self):
        record = program_record("table1_p10")
        record["checks"]["repeat_bitwise"] = {"ok": False, "detail": "fields differ"}
        del record["metrics"]["setup_s"]
        failures = benchlib.check_result("table1_p10", record, False)
        self.assertIn("repeat_bitwise: fields differ", failures)
        self.assertIn("setup_s: missing or not finite", failures)

    def test_traced_layers_must_add_up_to_the_query(self):
        record = program_record("table1_p10")
        record["metrics"] = {"rom.assemble_s": {"value": 0.2}, "rom.solve_s": {"value": 0.3},
                             "rom.reconstruct_s": {"value": 0.25},
                             "unattributed_s": {"value": 0.05},
                             "traced_query_s": {"value": 0.8}}
        self.assertEqual(benchlib.complete_layers("table1_p10", record),
                         [n for n in benchlib.LAYERS_ON["table1_p10"]
                          if n not in ("rom.assemble_s", "rom.solve_s", "rom.reconstruct_s",
                                       "unattributed_s", "traced_query_s")])
        self.assertEqual(benchlib.check_result("table1_p10", record, True), [])
        broken = copy.deepcopy(record)
        broken["metrics"]["traced_query_s"]["value"] = 0.9
        self.assertEqual(len(benchlib.check_result("table1_p10", broken, True)), 1)


class ManifestTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_committed_manifest_is_generated(self):
        committed = HERE.parent.parent / "BENCHMARK.json"
        if not committed.is_file():
            self.skipTest("BENCHMARK.json sits at the repository root, not next to this copy")
        self.assertEqual(json.loads(committed.read_text()), benchlib.manifest())

    def test_manifest_limits(self):
        doc = benchlib.manifest()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in doc[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertLessEqual(m.get("bound", 0.0), 0.25)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)


if __name__ == "__main__":
    unittest.main()
