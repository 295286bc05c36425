#include "common/rng.hpp"

#include <cmath>

namespace kgwas {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256pp::result_type Xoshiro256pp::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256pp::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
      0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_ = {s0, s1, s2, s3};
}

Xoshiro256pp Xoshiro256pp::split() noexcept {
  Xoshiro256pp child = *this;
  child.long_jump();
  // Advance the parent as well so repeated splits yield distinct streams.
  long_jump();
  long_jump();
  return child;
}

double Rng::uniform() noexcept {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

int Rng::binomial(int n, double p) noexcept {
  int count = 0;
  for (int i = 0; i < n; ++i) count += bernoulli(p) ? 1 : 0;
  return count;
}

long Rng::poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    long k = 0;
    double prod = uniform();
    while (prod > limit) {
      ++k;
      prod *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction for large lambda.
  const double value = normal(lambda, std::sqrt(lambda));
  return value < 0.0 ? 0 : static_cast<long>(value + 0.5);
}

double Rng::gamma(double shape) noexcept {
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u > 0.0 ? u : 1e-300, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::beta(double a, double b) noexcept {
  const double x = gamma(a);
  const double y = gamma(b);
  const double sum = x + y;
  return sum > 0.0 ? x / sum : 0.5;
}

Rng Rng::split() noexcept {
  Rng child(0);
  child.gen_ = gen_.split();
  return child;
}

}  // namespace kgwas
