// perfbench_workload: runs one benchmark workload through the morestress
// public API and prints one JSON result record as its last stdout line.
//
//   perfbench_workload --workload table1_p10|fatigue_sweep_warm|size_sweep_cold
//                    --seed N --seconds S [--trace 0|1] [--trace-out trace.json]
//                    [--single-thread]
//
// Normally started by run.py, which builds it, evaluates the checks and
// prints the benchmark verdict. Exit code 1 when a check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "harness.hpp"
#include "util/log.hpp"

namespace {

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--single-thread") {
      args.single_thread = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Record record;
  try {
    const perfbench::Args args = parse_args(argc, argv);
    ms::util::set_log_level(ms::util::LogLevel::Warn);
#ifdef _OPENMP
    if (args.single_thread) omp_set_num_threads(1);
    record.fact("omp_max_threads", omp_get_max_threads());
#else
    record.fact("omp_max_threads", 1);
#endif
    record.info("compiler", PERFBENCH_COMPILER);
    record.info("build_type", PERFBENCH_BUILD_TYPE);
    record.fact("nproc", perfbench::usable_cpus());
    if (args.workload == "table1_p10") {
      perfbench::run_table1(args, record);
    } else if (args.workload == "fatigue_sweep_warm") {
      perfbench::run_fatigue_sweep(args, record);
    } else if (args.workload == "size_sweep_cold") {
      perfbench::run_size_sweep(args, record);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 2;
  }
  std::fflush(stderr);
  std::printf("%s\n", record.json().c_str());
  return record.all_checks_ok() ? 0 : 1;
}
