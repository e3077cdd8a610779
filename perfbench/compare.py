#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent commit's and a change's.

  python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (it writes them to
.bench_build/results/; copy that directory aside after each set of runs).
For every workload and end-to-end metric the medians are compared against
the metric's bound; traced runs add a per-layer table of medians. Exit code
1 when any metric regressed."""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def load(directory):
    """workload -> (end-to-end metric objects, per-layer metric objects)."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        measured, layered = runs.setdefault(record["workload"], ([], []))
        (layered if record["trace"] else measured).append(record["result"]["metrics"])
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent = load(argv[1])
    change = load(argv[2])
    verdicts = benchlib.compare({w: r[0] for w, r in parent.items()},
                                {w: r[0] for w, r in change.items()})
    print("%-20s %-16s %14s %14s %9s %6s  %s" % ("workload", "metric", "parent", "change",
                                                 "worse_by", "bound", "verdict"))
    for v in verdicts:
        print("%-20s %-16s %14.6g %14.6g %+8.1f%% %5.0f%%  %s" % (
            v["workload"], v["metric"], v["parent_median"], v["change_median"],
            100 * v["worse_by"], 100 * v["bound"], v["verdict"]))
    for workload in sorted(set(parent) & set(change)):
        before, after = parent[workload][1], change[workload][1]
        if not before or not after:
            continue
        print("\nper-layer medians, %s (traced runs: %d parent, %d change)"
              % (workload, len(before), len(after)))
        for name in benchlib.LAYERS_ON[workload]:
            base = statistics.median(run[name]["value"] for run in before)
            new = statistics.median(run[name]["value"] for run in after)
            print("  %-28s %14.6g %14.6g" % (name, base, new))
    return 1 if any(v["verdict"] == "regression" for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
