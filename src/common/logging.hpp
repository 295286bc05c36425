// Minimal leveled logger.  Single global sink (stderr), thread-safe,
// controllable via KGWAS_LOG_LEVEL environment variable or set_log_level().
//
// Multi-rank runs: the in-process dist transport runs every rank as a
// thread of one process, so without disambiguation their log lines
// interleave indistinguishably.  Threads that belong to a rank call
// set_thread_log_rank(r) once (run_ranks does this for rank threads, the
// Scheduler propagates the creator's rank to its workers), and every line
// they emit carries an "rN" field.  KGWAS_LOG_TIMESTAMPS=1 additionally
// prefixes seconds since process start, which makes cross-rank
// interleavings readable next to trace timelines (1 or on; 0, off or
// empty leave it off).  An unknown KGWAS_LOG_LEVEL or
// KGWAS_LOG_TIMESTAMPS value warns and keeps the default (warn, off).
#pragma once

#include <sstream>
#include <string>

namespace kgwas {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Sets the global threshold; messages below it are discarded.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Tags the calling thread with a dist rank; every log line it emits is
/// prefixed with "rN".  Negative clears the tag (single-process default).
void set_thread_log_rank(int rank) noexcept;
int thread_log_rank() noexcept;  ///< -1 when untagged

namespace detail {
void log_message(LogLevel level, const std::string& message);
/// Formats one log line (no trailing newline): rank < 0 omits the rank
/// field, elapsed_seconds < 0 omits the timestamp.  Split out so tests
/// can pin the format without capturing stderr.
std::string format_log_line(LogLevel level, int rank, double elapsed_seconds,
                            const std::string& message);
}

}  // namespace kgwas

#define KGWAS_LOG(level, expr)                                      \
  do {                                                              \
    if (static_cast<int>(level) >= static_cast<int>(::kgwas::log_level())) { \
      std::ostringstream kgwas_log_os;                              \
      kgwas_log_os << expr;                                         \
      ::kgwas::detail::log_message(level, kgwas_log_os.str());      \
    }                                                               \
  } while (0)

#define KGWAS_LOG_DEBUG(expr) KGWAS_LOG(::kgwas::LogLevel::kDebug, expr)
#define KGWAS_LOG_INFO(expr) KGWAS_LOG(::kgwas::LogLevel::kInfo, expr)
#define KGWAS_LOG_WARN(expr) KGWAS_LOG(::kgwas::LogLevel::kWarn, expr)
#define KGWAS_LOG_ERROR(expr) KGWAS_LOG(::kgwas::LogLevel::kError, expr)
