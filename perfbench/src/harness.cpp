#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  return lo + (hi - lo) * unit;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::size_t median_index(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&values](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  return order[(order.size() - 1) / 2];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// --- tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const std::string& name, int query) : tracer_(tracer) {
  Span span;
  span.id = static_cast<int>(tracer.spans_.size());
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.query = query >= 0 || span.parent < 0 ? query : tracer.span(span.parent).query;
  span.name = name;
  span.start = seconds_since(tracer.origin_);
  id_ = span.id;
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(id_)].end = seconds_since(tracer_.origin_);
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::children_seconds(int id) const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.parent == id) out[s.name] += s.seconds();
  }
  return out;
}

std::map<std::string, double> Tracer::subtree_seconds(int id) const {
  // Spans are stored in opening order, so a parent precedes its children.
  std::vector<char> inside(spans_.size(), 0);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    if (s.parent == id || inside[static_cast<std::size_t>(s.parent)]) {
      inside[static_cast<std::size_t>(s.id)] = 1;
      out[s.name] += s.seconds();
    }
  }
  return out;
}

double Tracer::self_seconds(int id) const {
  double covered = 0.0;
  for (const auto& [name, seconds] : children_seconds(id)) covered += seconds;
  return span(id).seconds() - covered;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span_id\":%d,\"parent_id\":%d,\"query_id\":%d,"
                 "\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6, s.seconds() * 1e6, s.id,
                 s.parent, s.query, self_seconds(s.id) * 1e6);
  }
  std::fputs("]}\n", out);
  std::fclose(out);
}

void record_replays(const Tracer& tracer, const std::vector<int>& queries,
                    const std::vector<double>& untraced, Record& record) {
  std::vector<double> traced;
  for (int id : queries) traced.push_back(tracer.span(id).seconds());
  const int q = queries[median_index(traced)];
  for (const auto& [name, seconds] : tracer.subtree_seconds(q)) {
    record.metric(name + "_s", seconds);
  }
  record.metric("traced_query_s", tracer.span(q).seconds(), traced.size());
  record.metric("unattributed_s", tracer.self_seconds(q));
  record.metric("trace_overhead_ratio", median(traced) / median(untraced), traced.size());
}

// --- record -----------------------------------------------------------------

void Record::metric(const std::string& name, double value, std::size_t samples) {
  metrics_[name] = {value, samples};
}

void Record::fact(const std::string& name, double value) { facts_[name] = value; }

void Record::info(const std::string& name, const std::string& value) { info_[name] = value; }

void Record::check(const std::string& name, bool ok, const std::string& detail) {
  checks_[name] = {ok, detail};
}

bool Record::all_checks_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& entry) { return entry.second.ok; });
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Record::json() const {
  std::ostringstream out;
  out << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, entry] : metrics_) {
    out << sep << quoted(name) << ":{\"value\":" << number(entry.first)
        << ",\"samples\":" << entry.second << "}";
    sep = ",";
  }
  out << "},\"facts\":{";
  sep = "";
  for (const auto& [name, value] : facts_) {
    out << sep << quoted(name) << ":" << number(value);
    sep = ",";
  }
  out << "},\"info\":{";
  sep = "";
  for (const auto& [name, value] : info_) {
    out << sep << quoted(name) << ":" << quoted(value);
    sep = ",";
  }
  out << "},\"checks\":{";
  sep = "";
  for (const auto& [name, c] : checks_) {
    out << sep << quoted(name) << ":{\"ok\":" << (c.ok ? "true" : "false")
        << ",\"detail\":" << quoted(c.detail) << "}";
    sep = ",";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
