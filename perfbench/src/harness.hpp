#pragma once
// Measurement plumbing of the repository benchmark: seeded inputs, order
// statistics, process memory, an in-memory span tracer that times calls into
// the library from the outside, and the result record perfbench_workload
// prints as its last stdout line (run.py turns it into the benchmark verdict).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// splitmix64: the benchmark's only source of input randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// Index of the element whose value is the (lower) median of `values`.
[[nodiscard]] std::size_t median_index(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on (the affinity mask, like `nproc`).
[[nodiscard]] int usable_cpus();

/// Spans recorded by the benchmark around its own calls into the library.
/// Single-threaded by design: the traced replays run on the main thread.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;  ///< -1 = root
    int query = -1;   ///< replayed-query id the span belongs to (-1 = none)
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    [[nodiscard]] double seconds() const { return end - start; }
  };

  /// RAII span: opens on construction, closes on destruction. Nests under
  /// the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, int query = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  /// Total duration of the direct children of `id`, by span name.
  [[nodiscard]] std::map<std::string, double> children_seconds(int id) const;
  /// Total duration of every span nested under `id`, by span name.
  [[nodiscard]] std::map<std::string, double> subtree_seconds(int id) const;
  /// Duration minus the time covered by direct children.
  [[nodiscard]] double self_seconds(int id) const;
  /// Chrome trace-event JSON ("X" events, args carry span/parent/query ids).
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Record;

/// Per-layer metrics of the traced replays: picks the replay with the median
/// query time and records `<span>_s` for every span under it, plus
/// traced_query_s, unattributed_s (the query's self time) and
/// trace_overhead_ratio (median traced / median untraced query time).
void record_replays(const Tracer& tracer, const std::vector<int>& queries,
                    const std::vector<double>& untraced, Record& record);

/// The result record of perfbench_workload, printed as one JSON object.
class Record {
 public:
  void metric(const std::string& name, double value, std::size_t samples = 1);
  /// Value of a metric recorded earlier (throws std::out_of_range if none).
  [[nodiscard]] double metric_value(const std::string& name) const {
    return metrics_.at(name).first;
  }
  void fact(const std::string& name, double value);
  void info(const std::string& name, const std::string& value);
  void check(const std::string& name, bool ok, const std::string& detail);
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] bool all_checks_ok() const;
  [[nodiscard]] std::string json() const;

 private:
  struct Check {
    bool ok;
    std::string detail;
  };
  std::map<std::string, std::pair<double, std::size_t>> metrics_;
  std::map<std::string, double> facts_;
  std::map<std::string, std::string> info_;
  std::map<std::string, Check> checks_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Command line of perfbench_workload (see main.cpp).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool single_thread = false;  ///< one engine worker, one OpenMP thread
  std::string trace_out;       ///< Chrome trace path (trace mode)
};

/// Repetitions of the set-up phase per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Untimed set-ups before the timed ones. Right after a process starts,
/// multi-threaded work runs several times slower for up to about a second
/// while idle CPUs wake up; the warm-up keeps that out of every timing.
constexpr double kWarmUpSeconds = 1.5;
/// Traced replays per run; per-layer numbers come from the median one.
constexpr int kReplays = 5;

void run_table1(const Args& args, Record& record);
void run_fatigue_sweep(const Args& args, Record& record);
void run_size_sweep(const Args& args, Record& record);

}  // namespace perfbench
