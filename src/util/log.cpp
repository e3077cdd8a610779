#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/flight_recorder.hpp"

namespace ms::util {
namespace {

// Read by every MS_LOG_* call on every sweep worker; relaxed ordering is
// enough, a level change need not order any other memory.
std::atomic<LogLevel> g_level{LogLevel::Info};

// Serializes concurrent MS_LOG_* writers: each message is formatted into a
// local buffer and written with ONE fwrite, so multi-threaded sweep logs
// never interleave mid-line. (fprintf-per-fragment, the previous scheme, let
// the prefix of one thread land inside the body of another.)
std::mutex& log_mutex() {
  static std::mutex m;
  return m;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

const char* basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_message(LogLevel level, const char* file, int line, const char* fmt, ...) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // Format the whole line locally, then write it atomically. Oversized
  // messages are truncated with a marker rather than split across writes.
  char buf[1024];
  int prefix = std::snprintf(buf, sizeof(buf), "[%s %s:%d] ", level_tag(level),
                             basename_of(file), line);
  if (prefix < 0) return;
  if (prefix > static_cast<int>(sizeof(buf)) - 2) prefix = static_cast<int>(sizeof(buf)) - 2;
  std::va_list args;
  va_start(args, fmt);
  int body = std::vsnprintf(buf + prefix, sizeof(buf) - static_cast<std::size_t>(prefix) - 1,
                            fmt, args);
  va_end(args);
  if (body < 0) body = 0;
  std::size_t len = static_cast<std::size_t>(prefix) + static_cast<std::size_t>(body);
  if (len > sizeof(buf) - 2) {
    len = sizeof(buf) - 2;
    std::memcpy(buf + len - 3, "...", 3);
  }
  // Mirror into the flight recorder before the trailing newline goes on —
  // ring entries are single lines by construction.
  buf[len] = '\0';
  obs::FlightRecorder::note_log(buf);
  buf[len] = '\n';
  std::lock_guard<std::mutex> lock(log_mutex());
  std::fwrite(buf, 1, len + 1, stderr);
}

LogLevel parse_log_level(const std::string& name, bool* ok) {
  if (ok != nullptr) *ok = true;
  if (name == "trace") return LogLevel::Trace;
  if (name == "debug") return LogLevel::Debug;
  if (name == "info") return LogLevel::Info;
  if (name == "warn") return LogLevel::Warn;
  if (name == "error") return LogLevel::Error;
  if (name == "off") return LogLevel::Off;
  if (ok != nullptr) *ok = false;
  MS_LOG_WARN("unknown log level \"%s\" (expected trace/debug/info/warn/error/off); using info",
              name.c_str());
  return LogLevel::Info;
}

bool apply_env_log_level() {
  const char* env = std::getenv("MS_LOG_LEVEL");
  if (env == nullptr || env[0] == '\0') return false;
  bool ok = false;
  const LogLevel level = parse_log_level(env, &ok);
  if (!ok) return false;  // parse_log_level already warned
  set_log_level(level);
  return true;
}

}  // namespace ms::util
