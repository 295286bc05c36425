// Wall-clock timing utilities used by the benchmark harness and the
// runtime profiler.
#pragma once

#include <chrono>
#include <cstdint>

namespace kgwas {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() noexcept { reset(); }

  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds since construction or last reset().
  double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Nanoseconds since epoch; used to timestamp runtime trace events.
  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kgwas
