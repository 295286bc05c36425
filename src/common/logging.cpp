#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace kgwas {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
bool g_timestamps = false;  // written once, inside g_env_once
std::once_flag g_env_once;
std::mutex g_sink_mutex;
thread_local int t_log_rank = -1;

double seconds_since_start() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

// Still inside log_level()'s call_once, so KGWAS_LOG_WARN would re-enter
// it: init_from_env's warnings go to the sink directly.
void warn_from_init(const std::string& message) {
  const std::string line = detail::format_log_line(
      LogLevel::kWarn, t_log_rank,
      g_timestamps ? seconds_since_start() : -1.0, message);
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "%s\n", line.c_str());
}

void init_from_env() {
  std::string bad_timestamps;
  if (const char* ts = std::getenv("KGWAS_LOG_TIMESTAMPS")) {
    const std::string value(ts);
    if (value == "1" || value == "on") {
      g_timestamps = true;
    } else if (!(value.empty() || value == "0" || value == "off")) {
      bad_timestamps = value;
    }
  }
  if (const char* env = std::getenv("KGWAS_LOG_LEVEL")) {
    const std::string value(env);
    if (value == "trace") g_level = static_cast<int>(LogLevel::kTrace);
    else if (value == "debug") g_level = static_cast<int>(LogLevel::kDebug);
    else if (value == "info") g_level = static_cast<int>(LogLevel::kInfo);
    else if (value == "warn") g_level = static_cast<int>(LogLevel::kWarn);
    else if (value == "error") g_level = static_cast<int>(LogLevel::kError);
    else if (value == "off") g_level = static_cast<int>(LogLevel::kOff);
    else if (!value.empty()) {
      warn_from_init("ignoring KGWAS_LOG_LEVEL='" + value +
                     "' (want trace|debug|info|warn|error|off); keeping the "
                     "default warn");
    }
  }
  if (!bad_timestamps.empty() &&
      g_level.load() <= static_cast<int>(LogLevel::kWarn)) {
    warn_from_init("ignoring KGWAS_LOG_TIMESTAMPS='" + bad_timestamps +
                   "' (want 1|on|0|off); keeping the default off");
  }
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level = static_cast<int>(level);
}

LogLevel log_level() noexcept {
  std::call_once(g_env_once, init_from_env);
  return static_cast<LogLevel>(g_level.load());
}

void set_thread_log_rank(int rank) noexcept { t_log_rank = rank; }

int thread_log_rank() noexcept { return t_log_rank; }

namespace detail {

std::string format_log_line(LogLevel level, int rank, double elapsed_seconds,
                            const std::string& message) {
  char head[64];
  std::string out = "[kgwas";
  if (elapsed_seconds >= 0.0) {
    std::snprintf(head, sizeof(head), " +%.3fs", elapsed_seconds);
    out += head;
  }
  if (rank >= 0) {
    std::snprintf(head, sizeof(head), " r%d", rank);
    out += head;
  }
  std::snprintf(head, sizeof(head), " %-5s] ", level_name(level));
  out += head;
  out += message;
  return out;
}

void log_message(LogLevel level, const std::string& message) {
  std::call_once(g_env_once, init_from_env);
  const double elapsed = g_timestamps ? seconds_since_start() : -1.0;
  const std::string line =
      format_log_line(level, t_log_rank, elapsed, message);
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace detail

}  // namespace kgwas
