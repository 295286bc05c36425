// Tests for the narrow floating-point emulation: format constants,
// round-to-nearest-even semantics, saturation rules, bulk conversion.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/status.hpp"
#include "precision/convert.hpp"
#include "precision/float_format.hpp"
#include "precision/precision.hpp"
#include "tile/tile.hpp"

namespace kgwas {
namespace {

TEST(FloatFormat, KnownMaxFiniteValues) {
  EXPECT_DOUBLE_EQ(kFp16Format.max_finite(), 65504.0);
  EXPECT_DOUBLE_EQ(kFp8E4M3Format.max_finite(), 448.0);
  EXPECT_DOUBLE_EQ(kFp8E5M2Format.max_finite(), 57344.0);
  EXPECT_DOUBLE_EQ(kFp4E2M1Format.max_finite(), 6.0);
  EXPECT_NEAR(kBf16Format.max_finite(), 3.3895313892515355e38, 1e24);
}

TEST(FloatFormat, KnownMinValues) {
  EXPECT_DOUBLE_EQ(kFp16Format.min_normal(), std::ldexp(1.0, -14));
  EXPECT_DOUBLE_EQ(kFp16Format.min_subnormal(), std::ldexp(1.0, -24));
  EXPECT_DOUBLE_EQ(kFp8E4M3Format.min_normal(), std::ldexp(1.0, -6));
  EXPECT_DOUBLE_EQ(kFp8E4M3Format.min_subnormal(), std::ldexp(1.0, -9));
  EXPECT_DOUBLE_EQ(kFp4E2M1Format.min_subnormal(), 0.5);
}

TEST(FloatFormat, UnitRoundoff) {
  EXPECT_DOUBLE_EQ(kFp16Format.unit_roundoff(), std::ldexp(1.0, -11));
  EXPECT_DOUBLE_EQ(kFp8E4M3Format.unit_roundoff(), std::ldexp(1.0, -4));
  EXPECT_DOUBLE_EQ(kFp8E5M2Format.unit_roundoff(), std::ldexp(1.0, -3));
}

TEST(FloatFormat, Fp4ValueSet) {
  // E2M1 non-negative representables: 0, 0.5, 1, 1.5, 2, 3, 4, 6.
  const std::vector<double> expected{0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
  std::vector<double> actual;
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    actual.push_back(decode_bits(kFp4E2M1Format, bits));
  }
  EXPECT_EQ(actual, expected);
}

TEST(FloatFormat, RoundTiesToEven) {
  // fp16 spacing at 2048 is 1: 2048.5 must round to even (2048),
  // 2049.5 to 2050.
  EXPECT_DOUBLE_EQ(round_to_format(kFp16Format, 2048.5), 2048.0);
  EXPECT_DOUBLE_EQ(round_to_format(kFp16Format, 2049.5), 2050.0);
  // e4m3 spacing in [16, 32) is 2: 17 is a tie -> 16 (even mantissa), 19 -> 20.
  EXPECT_DOUBLE_EQ(round_to_format(kFp8E4M3Format, 17.0), 16.0);
  EXPECT_DOUBLE_EQ(round_to_format(kFp8E4M3Format, 19.0), 20.0);
}

TEST(FloatFormat, SaturationRules) {
  // fp16 overflows to inf; e4m3 saturates to 448; fp4 saturates to 6.
  EXPECT_TRUE(std::isinf(round_to_format(kFp16Format, 70000.0)));
  EXPECT_DOUBLE_EQ(round_to_format(kFp8E4M3Format, 1.0e6), 448.0);
  EXPECT_DOUBLE_EQ(round_to_format(kFp8E4M3Format, -1.0e6), -448.0);
  EXPECT_DOUBLE_EQ(round_to_format(kFp4E2M1Format, 100.0), 6.0);
  EXPECT_TRUE(std::isinf(round_to_format(kFp8E5M2Format, 1.0e6)));
}

TEST(FloatFormat, NanHandling) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(round_to_format(kFp16Format, nan)));
  EXPECT_TRUE(std::isnan(round_to_format(kFp8E4M3Format, nan)));
  // E2M1 has no NaN: saturates.
  EXPECT_DOUBLE_EQ(round_to_format(kFp4E2M1Format, nan), 6.0);
}

TEST(FloatFormat, SignedZeroPreserved) {
  EXPECT_TRUE(std::signbit(round_to_format(kFp16Format, -0.0)));
  EXPECT_FALSE(std::signbit(round_to_format(kFp16Format, 0.0)));
}

}  // namespace

// GoogleTest prints each parameter into the test's listed name
// ("# GetParam() = ..."). Print the format's name, not its address, so the
// names are the same from run to run. Declared in kgwas so ADL finds it.
static void PrintTo(const FloatFormat* fmt, std::ostream* os) { *os << fmt->name; }

namespace {

/// Exhaustive encode/decode round-trip over every code of a format.
class Format8RoundTrip : public ::testing::TestWithParam<const FloatFormat*> {};

TEST_P(Format8RoundTrip, AllCodesRoundTrip) {
  const FloatFormat& fmt = *GetParam();
  const std::uint32_t n_codes = 1u << fmt.total_bits();
  for (std::uint32_t bits = 0; bits < n_codes; ++bits) {
    const double value = decode_bits(fmt, bits);
    if (std::isnan(value)) continue;  // NaN encodes to the canonical code
    const std::uint32_t re = encode_bits(fmt, value);
    const double value2 = decode_bits(fmt, re);
    EXPECT_EQ(value, value2) << fmt.name << " code " << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNarrowFormats, Format8RoundTrip,
                         ::testing::Values(&kFp8E4M3Format, &kFp8E5M2Format,
                                           &kFp4E2M1Format, &kFp16Format),
                         [](const auto& info) {
                           return std::string(info.param->name);
                         });

/// Rounding must be idempotent and monotone for every format.
class RoundingProperty : public ::testing::TestWithParam<Precision> {};

// Half the subnormal spacing (absolute error floor near zero); 0 where the
// format is wide enough not to matter in the tested range.
double subnormal_half_spacing(Precision p) {
  switch (p) {
    case Precision::kFp64:
    case Precision::kFp32:
    case Precision::kInt8: return 0.0;
    default: return float_format(p).min_subnormal() / 2.0;
  }
}

TEST_P(RoundingProperty, IdempotentAndMonotone) {
  const Precision p = GetParam();
  double prev_rounded = -std::numeric_limits<double>::infinity();
  for (double x = -500.0; x <= 500.0; x += 0.37) {
    const double r = quantize(p, x);
    EXPECT_EQ(quantize(p, r), r) << to_string(p) << " at " << x;
    EXPECT_GE(r, prev_rounded) << to_string(p) << " at " << x;
    prev_rounded = r;
    if (std::fabs(x) > max_finite(p)) continue;  // saturation region
    // Rounding error bounded by unit roundoff (relative) once normal,
    // or by half the subnormal spacing.
    const double bound = std::max(
        unit_roundoff(p) * std::fabs(x) * (1 + 1e-12), subnormal_half_spacing(p));
    EXPECT_LE(std::fabs(r - x), bound + 1e-12) << to_string(p) << " at " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrecisions, RoundingProperty,
    ::testing::Values(Precision::kFp32, Precision::kFp16, Precision::kBf16,
                      Precision::kFp8E4M3, Precision::kFp8E5M2),
    [](const auto& info) { return to_string(info.param); });

TEST(Precision, TraitsConsistency) {
  EXPECT_EQ(bytes_per_element(Precision::kFp64), 8u);
  EXPECT_EQ(bytes_per_element(Precision::kFp16), 2u);
  EXPECT_EQ(bytes_per_element(Precision::kFp8E4M3), 1u);
  EXPECT_LT(unit_roundoff(Precision::kFp32), unit_roundoff(Precision::kFp16));
  EXPECT_LT(unit_roundoff(Precision::kFp16),
            unit_roundoff(Precision::kFp8E4M3));
  for (const auto name :
       {"fp64", "fp32", "fp16", "bf16", "fp8_e4m3", "fp8_e5m2", "int8"}) {
    EXPECT_EQ(to_string(precision_from_string(name)), name);
  }
  EXPECT_THROW(precision_from_string("fp128"), InvalidArgument);
}

TEST(Precision, Int8Quantization) {
  EXPECT_DOUBLE_EQ(quantize(Precision::kInt8, 1.4), 1.0);
  EXPECT_DOUBLE_EQ(quantize(Precision::kInt8, 1.5), 2.0);   // ties to even
  EXPECT_DOUBLE_EQ(quantize(Precision::kInt8, 2.5), 2.0);   // ties to even
  EXPECT_DOUBLE_EQ(quantize(Precision::kInt8, 300.0), 127.0);
  EXPECT_DOUBLE_EQ(quantize(Precision::kInt8, -300.0), -128.0);
}

TEST(Convert, BufferRoundTripExactForRepresentables) {
  // Dosage-like values are exactly representable in every format.
  const std::vector<float> values{0.0f, 1.0f, 2.0f, -1.0f, 0.5f};
  for (const Precision p :
       {Precision::kFp16, Precision::kBf16, Precision::kFp8E4M3,
        Precision::kFp8E5M2}) {
    std::vector<std::uint8_t> storage(values.size() * bytes_per_element(p));
    std::vector<float> back(values.size());
    quantize_buffer(p, values.data(), storage.data(), values.size());
    dequantize_buffer(p, storage.data(), back.data(), values.size());
    EXPECT_EQ(values, back) << to_string(p);
  }
  // Zero-length buffers (rank-0 low-rank factors) may be null in every
  // format, including the memcpy-backed FP32 and same-format paths.
  for (const Precision p : {Precision::kFp32, Precision::kFp16}) {
    quantize_buffer(p, nullptr, nullptr, 0);
    dequantize_buffer(p, nullptr, nullptr, 0);
    convert_buffer(p, nullptr, p, nullptr, 0);
    convert_buffer(p, nullptr, Precision::kFp8E4M3, nullptr, 0);
  }
}

TEST(Convert, QuantizeInplaceMatchesScalar) {
  std::vector<float> data;
  for (int i = 0; i < 1000; ++i) data.push_back(0.001f * i - 0.37f);
  const float inf = std::numeric_limits<float>::infinity();
  for (const float special :
       {0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(), 1.0e-6f, -3.0e-8f, 65519.0f,
        65520.0f, 1.0e30f}) {
    data.push_back(special);
  }
  for (const Precision p :
       {Precision::kFp8E4M3, Precision::kFp16, Precision::kBf16}) {
    std::vector<float> rounded = data;
    quantize_inplace(p, rounded.data(), rounded.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      // Bit patterns, so NaN and signed zero count too.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(rounded[i]),
                std::bit_cast<std::uint32_t>(
                    static_cast<float>(quantize(p, data[i]))))
          << to_string(p) << " at " << data[i];
    }
  }
}

/// Every FP32 input a 16-bit encoder can get wrong: each code's value,
/// the midpoint to its successor and the floats either side of that tie,
/// the special values, the FP16 overflow edge and a fixed-stride sweep of
/// bit patterns.
std::vector<float> sixteen_bit_boundary_inputs(const FloatFormat& fmt) {
  std::vector<float> inputs;
  const float inf = std::numeric_limits<float>::infinity();
  for (std::uint32_t code = 0; code < 65536; ++code) {
    const double value = decode_bits(fmt, code);
    inputs.push_back(static_cast<float>(value));
    if (!std::isfinite(value)) continue;
    // Half the spacing above |value| (the subnormal spacing below the
    // normal range).  Every such midpoint is exact in FP32.
    const int exponent = value == 0.0 ? fmt.min_normal_exponent()
                                      : std::ilogb(value);
    const double half_ulp =
        std::ldexp(1.0, std::max(exponent, fmt.min_normal_exponent()) -
                            fmt.mantissa_bits - 1);
    const float mid =
        static_cast<float>(value + std::copysign(half_ulp, value));
    inputs.push_back(mid);
    inputs.push_back(std::nextafter(mid, inf));
    inputs.push_back(std::nextafter(mid, -inf));
  }
  for (const std::uint32_t bits :
       {0x00000000u, 0x80000000u, 0x7F800000u, 0xFF800000u,  // zeros, infs
        0x7FC00000u, 0xFFC00000u, 0x7FFFFFFFu, 0xFFFFFFFFu,  // quiet NaNs
        0x7F800001u, 0xFF800001u, 0x7FBFFFFFu, 0xFFA00000u,  // signalling
        0x00000001u, 0x80000001u, 0x00400000u, 0x007FFFFFu,  // subnormals
        0x807FFFFFu, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x7F7F8000u}) {
    inputs.push_back(std::bit_cast<float>(bits));
  }
  for (const float edge : {65504.0f, 65519.996f, 65520.0f}) {
    inputs.push_back(edge);
    inputs.push_back(-edge);
  }
  constexpr std::uint32_t kStride = 4099;  // odd: every low-bit pattern
  for (std::uint64_t bits = 0; bits < (1ull << 32); bits += kStride) {
    inputs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  return inputs;
}

TEST(Convert, SixteenBitEncodeMatchesOracleAtEveryRoundingBoundary) {
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    const FloatFormat& fmt = float_format(p);
    const std::vector<float> inputs = sixteen_bit_boundary_inputs(fmt);
    ASSERT_GT(inputs.size(), 1000000u);
    std::vector<std::uint16_t> oracle(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      oracle[i] = static_cast<std::uint16_t>(quantize_bits(fmt, inputs[i]));
    }

    std::vector<std::uint16_t> codes(inputs.size());
    quantize_buffer(p, inputs.data(), codes.data(), inputs.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (codes[i] == oracle[i]) continue;
      if (++mismatches <= 10) {
        ADD_FAILURE() << to_string(p) << " input bits 0x" << std::hex
                      << std::bit_cast<std::uint32_t>(inputs[i]) << ": got 0x"
                      << codes[i] << ", oracle 0x" << oracle[i];
      }
    }
    EXPECT_EQ(mismatches, 0u) << to_string(p);

    // Odd lengths and a source one float off the vector alignment.
    for (const std::size_t n : {1u, 3u, 7u, 17u, 255u, 1001u}) {
      for (const std::size_t offset : {0u, 1u}) {
        std::vector<std::uint16_t> part(n + 1, 0xABCD);
        quantize_buffer(p, inputs.data() + offset, part.data(), n);
        EXPECT_EQ(0, std::memcmp(part.data(), oracle.data() + offset,
                                 n * sizeof(std::uint16_t)))
            << to_string(p) << " n=" << n << " offset=" << offset;
        EXPECT_EQ(part[n], 0xABCD) << "wrote past the end";
      }
    }

    // convert_buffer and Tile::convert_to take the same encoder, and
    // their decode is dequantize_buffer's, byte for byte.
    std::vector<std::uint16_t> converted(inputs.size());
    convert_buffer(Precision::kFp32, inputs.data(), p, converted.data(),
                   inputs.size());
    EXPECT_EQ(converted, oracle) << to_string(p);
    std::vector<float> decoded(inputs.size());
    std::vector<float> back(inputs.size());
    dequantize_buffer(p, oracle.data(), decoded.data(), inputs.size());
    convert_buffer(p, oracle.data(), Precision::kFp32, back.data(),
                   inputs.size());
    EXPECT_EQ(0, std::memcmp(back.data(), decoded.data(),
                             inputs.size() * sizeof(float)))
        << to_string(p);

    constexpr std::size_t kRows = 61;  // odd, so columns are misaligned
    const std::size_t cols = 97;
    Tile tile(kRows, cols, Precision::kFp32);
    tile.encode_from(inputs.data(), kRows);
    tile.convert_to(p);
    EXPECT_EQ(0, std::memcmp(tile.raw(), oracle.data(),
                             kRows * cols * sizeof(std::uint16_t)))
        << to_string(p);
    tile.convert_to(Precision::kFp32);
    EXPECT_EQ(0, std::memcmp(tile.raw(), decoded.data(),
                             kRows * cols * sizeof(float)))
        << to_string(p);

    // A strided source encodes column by column into the same bytes.
    Tile strided(kRows, cols, p);
    strided.encode_from(inputs.data(), kRows + 2);
    for (std::size_t j = 0; j < cols; ++j) {
      ASSERT_EQ(0, std::memcmp(static_cast<const std::uint16_t*>(
                                   strided.raw()) + j * kRows,
                               oracle.data() + j * (kRows + 2),
                               kRows * sizeof(std::uint16_t)))
          << to_string(p) << " column " << j;
    }
  }
}

TEST(Convert, CrossFormatConversion) {
  const std::vector<float> values{0.125f, 3.0f, -2.5f, 440.0f};
  std::vector<std::uint16_t> fp16(values.size());
  std::vector<std::uint8_t> fp8(values.size());
  quantize_buffer(Precision::kFp16, values.data(), fp16.data(), values.size());
  convert_buffer(Precision::kFp16, fp16.data(), Precision::kFp8E4M3,
                 fp8.data(), values.size());
  std::vector<float> back(values.size());
  dequantize_buffer(Precision::kFp8E4M3, fp8.data(), back.data(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i], static_cast<float>(quantize(Precision::kFp8E4M3,
                                                   values[i])));
  }
}

TEST(SmallFloatTypes, SizesAndBasicOps) {
  const half_t h(3.14159f);
  EXPECT_NEAR(h.to_float(), 3.14159f, 3.14159f * 5e-4);
  const fp8_e4m3_t q(5.1f);
  EXPECT_NEAR(q.to_float(), 5.1f, 5.1f * 0.07);
  EXPECT_EQ(half_t(1.0f), half_t(1.0f));
  EXPECT_EQ(sizeof(bfloat16_t), 2u);
  EXPECT_EQ(sizeof(fp4_e2m1_t), 1u);
}

}  // namespace
}  // namespace kgwas
