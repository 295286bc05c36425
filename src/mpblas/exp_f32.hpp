// The engine's exact FP32 exponential of FP64 arguments:
// out[i] = float(std::exp(x[i])), bit for bit, at vector speed.
//
// Included only by the variant translation units (kernels.cpp and
// kernels_<isa>.cpp), each of which points its MicroKernel descriptor at
// its own copy.  Everything here has internal linkage on purpose: an
// inline function with external linkage compiled into several TUs with
// different -m flags is one symbol at link time, and the linker would keep
// a single copy for every variant.
//
// The loop is plain C++ that GCC vectorizes at each TU's ISA width
// (checked with -fopt-info-vec: 16, 32 and 64 bytes under the baseline,
// -mavx2 -mfma and -mavx512f flags).  Every range test and select works on
// integer bit patterns: a floating compare, ?: or std::max would block
// if-conversion under -ftrapping-math, and the 64-bit flag lanes keep the
// loop at one lane width (8-bit flags held the -mavx512f TU at 32 bytes).
//
// Method: Ziv's rounding test (Ziv, ACM TOMS 17(3), 1991).  A fast,
// branch-free evaluation with a proven error bound gives the double y;
// when y lies farther than that bound plus std::exp's own error from an
// FP32 rounding midpoint, float(y) equals float(std::exp(x)).  Otherwise
// the lane falls back to std::exp.
//
// Fast path, for -87 <= x <= -0 (x = k ln2 + r, |r| <= ln2/2 + tiny):
//  * Cody–Waite reduction with fdlibm's split of ln 2.  k * kLn2Hi is
//    exact (kLn2Hi has 21 trailing zero bits, |k| <= 126) and so is
//    x - k * kLn2Hi (Sterbenz); r carries one rounding plus the split's
//    2^-53 * kLn2Lo * |k| remainder: <= 0.35 ulp of the result.
//  * exp(r) by its degree-12 Taylor polynomial in Horner form.  The
//    truncation error is <= |r|^13 / 13! * e^|r| <= 2.4e-16, i.e.
//    <= 2.2 ulp; the evaluation adds <= 3.5 ulp (a sum of 2i+1 roundings
//    weighted by |r|^i / i!, over a result >= 0.7).  Measured on 4 M
//    random arguments against expl: 2.6 ulp.
//  * 2^k enters by an integer add to the exponent field: exact, since
//    the result stays a normal double.
// So |y - exp(x)| <= 6.1 ulp, and glibc's exp is within 0.51 ulp of
// exp(x).  kBandUlps = 32 sits 5x above the 6.6-ulp sum; the test flags
// a lane whose low 29 mantissa bits (the bits float() drops) lie within
// kBandUlps of the midpoint 2^28, about 1.2e-7 of all lanes.
//
// Every other x falls back: positive (including +0), NaN, infinite, or
// below -87, where the FP32 result nears the subnormal range
// (exp(-87.34) = FLT_MIN).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace kgwas::mpblas::kernels::detail {
namespace {

constexpr double kExpLog2e = 0x1.71547652b82fep0;
constexpr double kExpLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;
/// 1.5 * 2^52: adding it rounds to an integer and leaves that integer in
/// the low mantissa bits.
constexpr double kExpShifter = 0x1.8p52;
constexpr std::uint64_t kExpMaxMagnitude = 0x4055C00000000000ull;  // 87.0
constexpr std::uint64_t kExpBandUlps = 32;
constexpr std::size_t kExpBlock = 256;

/// out[i] = float(std::exp(x[i])) for i < n, bit for bit; returns how
/// many lanes fell back to std::exp.  Lanes run in blocks of kExpBlock:
/// the vector loop stores the fast result and a flag per lane, and a
/// scalar pass over a block with any flag recomputes the flagged lanes.
std::size_t exp_to_f32_lanes(const double* x, std::size_t n, float* out) {
  std::size_t fallbacks = 0;
  std::uint64_t flags[kExpBlock];
  for (std::size_t b0 = 0; b0 < n; b0 += kExpBlock) {
    const std::size_t nb = n - b0 < kExpBlock ? n - b0 : kExpBlock;
    const double* xb = x + b0;
    float* ob = out + b0;
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(xb[i]);
      const std::uint64_t magnitude = bits & 0x7FFFFFFFFFFFFFFFull;
      // Sign bit clear, or magnitude above 87 (NaN and Inf included).
      const std::uint64_t out_of_range =
          (~bits >> 63) | ((kExpMaxMagnitude - magnitude) >> 63);
      // Out-of-range lanes evaluate exp(+0) instead of their x.
      const auto xs = std::bit_cast<double>(bits & (out_of_range - 1));
      const double kd = xs * kExpLog2e + kExpShifter;
      const double k = kd - kExpShifter;
      const double r = (xs - k * kExpLn2Hi) - k * kExpLn2Lo;
      double p = 1.0 / 479001600.0;
      p = p * r + 1.0 / 39916800.0;
      p = p * r + 1.0 / 3628800.0;
      p = p * r + 1.0 / 362880.0;
      p = p * r + 1.0 / 40320.0;
      p = p * r + 1.0 / 5040.0;
      p = p * r + 1.0 / 720.0;
      p = p * r + 1.0 / 120.0;
      p = p * r + 1.0 / 24.0;
      p = p * r + 1.0 / 6.0;
      p = p * r + 0.5;
      p = p * r + 1.0;
      p = p * r + 1.0;
      const std::uint64_t y =
          std::bit_cast<std::uint64_t>(p) +
          ((std::bit_cast<std::uint64_t>(kd) -
            std::bit_cast<std::uint64_t>(kExpShifter))
           << 52);
      // Distance of the low 29 bits from 2^28 - kExpBandUlps, mod 2^29:
      // below 2 * kExpBandUlps means within the band around the midpoint.
      const std::uint64_t from_band =
          (y + (std::uint64_t{1} << 28) + kExpBandUlps) &
          ((std::uint64_t{1} << 29) - 1);
      const std::uint64_t flag =
          out_of_range | ((from_band - 2 * kExpBandUlps) >> 63);
      ob[i] = static_cast<float>(std::bit_cast<double>(y));
      flags[i] = flag;
      any |= flag;
    }
    if (any == 0) continue;
    for (std::size_t i = 0; i < nb; ++i) {
      if (flags[i] == 0) continue;
      ob[i] = static_cast<float>(std::exp(xb[i]));
      ++fallbacks;
    }
  }
  return fallbacks;
}

}  // namespace
}  // namespace kgwas::mpblas::kernels::detail
