// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (cohort simulation, phenotype
// noise, synthetic matrices) draw from `Xoshiro256pp`, a counter-seedable
// xoshiro256++ generator.  Using our own generator rather than std::mt19937
// guarantees bit-identical streams across standard libraries, which keeps
// the experiment harness reproducible everywhere.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace kgwas {

/// xoshiro256++ PRNG (Blackman & Vigna).  Satisfies UniformRandomBitGenerator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single seed via splitmix64.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() noexcept;

  /// Equivalent to 2^128 calls of operator(); used to split independent streams.
  void long_jump() noexcept;

  /// Returns an independent child stream (jump-based splitting).
  Xoshiro256pp split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Random helpers bound to a generator.  All methods are allocation-free.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) noexcept : gen_(seed) {}

  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via polar Box-Muller (cached spare value).
  double normal() noexcept;
  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept;
  /// Bernoulli(p).
  bool bernoulli(double p) noexcept;
  /// Binomial(n, p) by direct simulation (n is small in our use: 2 alleles).
  int binomial(int n, double p) noexcept;
  /// Poisson(lambda), Knuth for small lambda / normal approx for large.
  long poisson(double lambda) noexcept;
  /// Gamma(shape, 1) via Marsaglia-Tsang (boosted for shape < 1).
  double gamma(double shape) noexcept;
  /// Beta(a, b) via two gamma draws.
  double beta(double a, double b) noexcept;

  Xoshiro256pp& generator() noexcept { return gen_; }
  /// Independent child RNG for a parallel worker.
  Rng split() noexcept;

 private:
  Xoshiro256pp gen_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace kgwas
