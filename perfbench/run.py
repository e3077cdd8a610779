#!/usr/bin/env python3
"""The repository benchmark: build perfbench_workload from source, run one
workload, check its outputs, print every metric by name and unit, and end
with one JSON line {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload table1_p10 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the repository root. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced replay (see README.md). Exit
code 0 when every check passes, 1 when one fails, 2 on a set-up error."""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench_workload"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 150


class SetupError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "perfbench" / "CMakeLists.txt").is_file():
        raise SetupError("run from the repository root: src/ or perfbench/ not found in %s" % ROOT)
    deadline = time.monotonic() + BUILD_TIMEOUT
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise SetupError("build step failed: %s" % " ".join(step))


def run_workload(args, extra, env_overrides=None):
    command = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)] + extra
    # One malloc arena. With glibc's default (up to 8 per core) the sweep
    # workers and their nested OpenMP threads draw arenas in an order that
    # changes from run to run, and peak RSS with it by up to 20%.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    env.update(env_overrides or {})
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SetupError("perfbench_workload exited with %d: %s"
                         % (done.returncode, " ".join(command)))
    return json.loads(lines[-1])


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT.resolve():
            head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                  timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured where no git commit is available."""
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".py", ".txt"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(raw):
    facts = raw.get("facts", {})
    info = raw.get("info", {})
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "omp_max_threads": int(facts.get("omp_max_threads", 0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def print_report(args, raw, metrics, failures, finger):
    mode = "trace" if args.trace else "measure"
    print("perfbench %s  seed=%d  mode=%s" % (args.workload, args.seed, mode))
    samples = raw.get("metrics", {})
    for name, entry in metrics.items():
        print("  %-28s %14.6g %-6s (n=%d)" % (name, entry["value"], entry["unit"],
                                             samples.get(name, {}).get("samples", 0)))
    attempted = raw.get("attempted", 0)
    failed = raw.get("failed", 0)
    print("  %-28s %14.6g %-6s (%d of %d)" % ("failed_ratio", failed / max(attempted, 1),
                                             "ratio", failed, attempted))
    for name, value in sorted(raw.get("facts", {}).items()):
        print("  fact %-23s %14.6g" % (name, value))
    print("  fingerprint " + ", ".join("%s=%s" % kv for kv in finger.items()))
    for name, check in sorted(raw.get("checks", {}).items()):
        print("  check %-22s %s" % (name, "ok" if check["ok"] else "FAILED: " + check["detail"]))
    err = raw.get("facts", {}).get("rom_err_pct")
    print("  check %-22s %s" % ("rom_err_pct", "limit %g%%, got %s%%"
                                % (benchlib.ERR_LIMIT_PCT[args.workload], err)))
    for failure in failures:
        print("  FAILED " + failure)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in benchlib.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchlib.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from benchlib.py and exit")
    args = parser.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(benchlib.manifest_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        build()
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        single_qps = None
        if args.trace and args.workload in benchlib.SWEEPS:
            # Plain single-threaded baseline: one engine worker, one OpenMP
            # thread (OMP_NUM_THREADS reaches the engine's worker threads too).
            single = run_workload(args, ["--single-thread"], {"OMP_NUM_THREADS": "1"})
            single_qps = single.get("facts", {}).get("pass_qps")
        extra = ["--trace", "1", "--trace-out", str(RESULTS_DIR / (stem + ".trace.json"))] \
            if args.trace else []
        raw = run_workload(args, extra)
    except (SetupError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2

    missing = []
    if args.trace:
        missing = benchlib.complete_layers(args.workload, raw, single_qps)
    failures = ["%s: not reported by the traced run" % name for name in missing]
    failures += benchlib.check_result(args.workload, raw, bool(args.trace))
    metrics = benchlib.result_metrics(raw, bool(args.trace))
    finger = fingerprint(raw)
    print_report(args, raw, metrics, failures, finger)

    correct = not failures
    result = {"correct": correct, "attempted": int(raw.get("attempted", 0)),
              "failed": int(raw.get("failed", 0)), "metrics": metrics}
    (RESULTS_DIR / (stem + ".json")).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "fingerprint": finger, "failures": failures, "raw": raw, "result": result},
        indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
