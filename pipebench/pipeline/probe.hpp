// Host-speed probe for the timed repetitions.
//
// The measurement host is a shared VM whose speed drifts with its
// neighbours' load, on every workload alike: by about 10 % within two
// minutes, and by up to 40 % between runs a few minutes apart.  A
// repetition's wall time carries that drift.  Its ratio to a fixed
// reference computation, run right after it on the same number of threads,
// carries much less of it.  The probe is that reference: a fixed FP32
// multiply-accumulate loop of a few tens of milliseconds per thread.  It
// calls no library code, so no change to the library moves it.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace pipebench {

class HostProbe {
 public:
  explicit HostProbe(std::size_t threads) : blocks_(threads) {
    for (Block& b : blocks_) {
      for (std::size_t i = 0; i < kN * kN; ++i) {
        b.a[i] = static_cast<float>(i % 7) * 0.25f;
        b.b[i] = static_cast<float>(i % 5) * 0.125f;
        b.c[i] = 0.0f;
      }
    }
  }

  /// Runs the probe once on every thread; returns its wall time.
  double seconds() {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(blocks_.size());
    try {
      for (Block& b : blocks_) threads.emplace_back([&b] { b.run(); });
    } catch (...) {
      for (std::thread& t : threads) t.join();
      throw;
    }
    for (std::thread& t : threads) t.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

 private:
  static constexpr std::size_t kN = 96;
  static constexpr int kPasses = 150;

  /// One thread's operands (three 96 x 96 matrices, L2-resident), aligned
  /// so that no two threads share a cache line.
  struct alignas(64) Block {
    float a[kN * kN];
    float b[kN * kN];
    float c[kN * kN];

    void run() {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < kN; ++i) {
          for (std::size_t p = 0; p < kN; ++p) {
            const float aip = a[i * kN + p] * 1e-3f;
            for (std::size_t j = 0; j < kN; ++j) {
              c[i * kN + j] += aip * b[p * kN + j];
            }
          }
        }
      }
    }
  };

  std::vector<Block> blocks_;
};

}  // namespace pipebench
