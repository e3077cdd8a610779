"""Definition of the repository benchmark, shared by run.py, compare.py and
the self-tests: workloads, metrics with their units and bounds, the
correctness checks applied to every result of perfbench_workload, and the comparison of
two sets of runs. BENCHMARK.json is generated from this module
(`python3 perfbench/run.py --write-manifest`)."""

import json
import math
import statistics

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

WORKLOADS = [
    {"name": "table1_p10",
     "why": "Paper Table 1 headline case: a 16x16 array at p=10um through the CG global "
            "stage on one warm simulator; assemble, CG and reconstruct do the work, "
            "plus ROM memory and error vs FEM"},
    {"name": "fatigue_sweep_warm",
     "why": "Warm sweep of 8x8 fatigue queries: every factorization is a cache hit, so "
            "transient conduction, RHS assembly, triangular solves and rainflow/Miner "
            "do the work"},
    {"name": "size_sweep_cold",
     "why": "Cold sweep of 16 array shapes, factor cache cleared per pass: every query "
            "misses twice, so assembly, supernodal factorization and cache inserts "
            "dominate"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "query_p95_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "rom_mem_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "rom_err_pct", "unit": "%", "better": "lower", "bound": 0.05},
]

PER_LAYER = [
    {"name": "rom.local_stage_s", "unit": "s", "better": "lower"},
    {"name": "rom.assemble_s", "unit": "s", "better": "lower"},
    {"name": "rom.rhs_assemble_s", "unit": "s", "better": "lower"},
    {"name": "rom.solve_s", "unit": "s", "better": "lower"},
    {"name": "rom.solve_multi_s", "unit": "s", "better": "lower"},
    {"name": "rom.cg_iterations", "unit": "count", "better": "lower"},
    {"name": "rom.solve_computed_gbps", "unit": "GB/s", "better": "higher"},
    {"name": "rom.reconstruct_s", "unit": "s", "better": "lower"},
    {"name": "rom.matrix_mb", "unit": "MB", "better": "lower"},
    {"name": "thermal.setup_s", "unit": "s", "better": "lower"},
    {"name": "thermal.assemble_s", "unit": "s", "better": "lower"},
    {"name": "thermal.transient_s", "unit": "s", "better": "lower"},
    {"name": "thermal.steps", "unit": "count", "better": "lower"},
    {"name": "thermal.steady_s", "unit": "s", "better": "lower"},
    {"name": "la.factor_s", "unit": "s", "better": "lower"},
    {"name": "la.triangular_s", "unit": "s", "better": "lower"},
    {"name": "la.factor_nnz", "unit": "count", "better": "lower"},
    {"name": "la.factor_cache.hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "la.factor_cache.entries", "unit": "count", "better": "lower"},
    {"name": "reliability.extract_s", "unit": "s", "better": "lower"},
    {"name": "reliability.assess_s", "unit": "s", "better": "lower"},
    {"name": "sweep.worker_busy_frac", "unit": "ratio", "better": "higher"},
    {"name": "sweep.parallel_efficiency", "unit": "ratio", "better": "higher"},
    {"name": "fem.reference_s", "unit": "s", "better": "lower"},
    {"name": "traced_query_s", "unit": "s", "better": "lower"},
    {"name": "unattributed_s", "unit": "s", "better": "lower"},
    {"name": "trace_overhead_ratio", "unit": "ratio", "better": "lower"},
]

# Spans directly under the replayed query, per workload: with unattributed_s
# they add up to traced_query_s.
QUERY_LAYERS = {
    "table1_p10": ["rom.assemble_s", "rom.solve_s", "rom.reconstruct_s"],
    "fatigue_sweep_warm": ["thermal.setup_s", "thermal.transient_s", "rom.rhs_assemble_s",
                           "rom.solve_multi_s", "rom.reconstruct_s", "reliability.extract_s",
                           "reliability.assess_s"],
    "size_sweep_cold": ["thermal.setup_s", "thermal.steady_s", "rom.assemble_s", "rom.solve_s",
                        "rom.reconstruct_s"],
}

_TRACE_COMMON = ["rom.local_stage_s", "fem.reference_s", "traced_query_s", "unattributed_s",
                 "trace_overhead_ratio"]
_SWEEP_COMMON = ["thermal.assemble_s", "la.factor_cache.hit_ratio", "la.factor_cache.entries",
                 "sweep.worker_busy_frac", "sweep.parallel_efficiency"]
# Per-layer metrics each workload's traced run measures. The others are
# reported as 0: that layer does no work on the workload.
LAYERS_ON = {
    "table1_p10": QUERY_LAYERS["table1_p10"] + _TRACE_COMMON + [
        "rom.cg_iterations", "rom.solve_computed_gbps", "rom.matrix_mb"],
    "fatigue_sweep_warm": QUERY_LAYERS["fatigue_sweep_warm"] + _TRACE_COMMON + _SWEEP_COMMON + [
        "thermal.steps"],
    "size_sweep_cold": QUERY_LAYERS["size_sweep_cold"] + _TRACE_COMMON + _SWEEP_COMMON + [
        "la.factor_s", "la.triangular_s", "la.factor_nnz"],
}

# Correctness limit on the ROM's normalized von Mises error against the
# reference FEM (8x8 at p=10um for table1_p10, 4x4 on the sweeps' model).
ERR_LIMIT_PCT = {"table1_p10": 3.5, "fatigue_sweep_warm": 4.5, "size_sweep_cold": 4.5}

SWEEPS = ("fatigue_sweep_warm", "size_sweep_cold")


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def manifest_text():
    return json.dumps(manifest(), indent=2) + "\n"


def _units(trace):
    return {m["name"]: m["unit"] for m in (PER_LAYER if trace else END_TO_END)}


def check_result(workload, raw, trace):
    """Failures (one line each) of one perfbench_workload result; empty means correct.

    `raw` is the JSON record perfbench_workload printed, after per-layer completion (see
    complete_layers) when `trace` is set."""
    failures = []
    for name, check in sorted(raw.get("checks", {}).items()):
        if not check.get("ok"):
            failures.append("%s: %s" % (name, check.get("detail", "")))
    if raw.get("attempted", 0) < 1:
        failures.append("attempted: no query ran")
    err = raw.get("facts", {}).get("rom_err_pct")
    limit = ERR_LIMIT_PCT[workload]
    if err is None or not math.isfinite(err) or not 0.0 < err <= limit:
        failures.append("rom_err_pct: %r is outside (0, %g]" % (err, limit))
    metrics = raw.get("metrics", {})
    for name in _units(trace):
        value = metrics.get(name, {}).get("value")
        if value is None or not math.isfinite(value):
            failures.append("%s: missing or not finite" % name)
        elif not trace and value <= 0.0:
            failures.append("%s: %r is not positive" % (name, value))
    if trace and not failures:
        layers = sum(metrics[name]["value"] for name in QUERY_LAYERS[workload])
        total = metrics["traced_query_s"]["value"]
        covered = layers + metrics["unattributed_s"]["value"]
        if abs(covered - total) > 1e-6 * max(total, 1.0):
            failures.append("layer spans + unattributed_s = %.9g s, traced query %.9g s"
                            % (covered, total))
    return failures


def complete_layers(workload, raw, single_thread_qps=None):
    """Fill in the per-layer set perfbench_workload does not measure itself:
    the sweeps' parallel efficiency (from the single-thread baseline) and a
    0 for every layer idle on this workload. Returns the names the traced run
    should have reported but did not."""
    metrics = raw.setdefault("metrics", {})
    facts = raw.get("facts", {})
    if workload in SWEEPS and single_thread_qps:
        workers = facts.get("workers", 1)
        metrics["sweep.parallel_efficiency"] = {
            "value": facts.get("pass_qps", 0.0) / (workers * single_thread_qps), "samples": 1}
    missing = [name for name in LAYERS_ON[workload] if name not in metrics]
    for m in PER_LAYER:
        metrics.setdefault(m["name"], {"value": 0.0, "samples": 0})
    return missing


def result_metrics(raw, trace):
    """The `metrics` object of the benchmark's last output line."""
    return {name: {"value": raw["metrics"][name]["value"], "unit": unit}
            for name, unit in _units(trace).items() if name in raw.get("metrics", {})}


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def compare(parent, change, bounds=None):
    """Verdict per (workload, end-to-end metric) of two sets of runs.

    `parent` and `change` map workload -> list of result metrics (the
    `metrics` objects of the runs' last lines). A metric regresses when the
    change's median is worse than the parent's by more than its bound. A
    metric whose parent runs spread wider than its bound is "unresolved",
    unless every change run reads better than every parent run."""
    bounds = bounds or {m["name"]: m for m in END_TO_END}
    verdicts = []
    for workload in sorted(set(parent) & set(change)):
        for name, meta in sorted(bounds.items()):
            before = [run[name]["value"] for run in parent[workload] if name in run]
            after = [run[name]["value"] for run in change[workload] if name in run]
            if not before or not after:
                continue
            base = statistics.median(before)
            new = statistics.median(after)
            lower = meta["better"] == "lower"
            worse = (new - base) / base if lower else (base - new) / base
            all_better = max(after) < min(before) if lower else min(after) > max(before)
            if len(before) >= 2 and spread(before) > meta["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "regression"
            elif -worse > meta["bound"]:
                verdict = "improvement"
            else:
                verdict = "no change"
            verdicts.append({"workload": workload, "metric": name, "verdict": verdict,
                             "parent_median": base, "change_median": new,
                             "worse_by": worse, "bound": meta["bound"]})
    return verdicts
