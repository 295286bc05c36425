#include "precision/convert.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "precision/float_format.hpp"

namespace kgwas {

namespace {

/// 256-entry decode tables for the 8-bit formats and a 65536-entry table
/// for the 16-bit formats, built on first use.
const std::array<float, 256>& decode_table8(const FloatFormat& fmt) {
  auto build = [](const FloatFormat& format) {
    auto table = std::make_unique<std::array<float, 256>>();
    for (std::uint32_t bits = 0; bits < 256; ++bits) {
      (*table)[bits] = static_cast<float>(decode_bits(format, bits));
    }
    return table;
  };
  static const auto e4m3 = build(kFp8E4M3Format);
  static const auto e5m2 = build(kFp8E5M2Format);
  static const auto e2m1 = build(kFp4E2M1Format);
  if (&fmt == &kFp8E4M3Format) return *e4m3;
  if (&fmt == &kFp8E5M2Format) return *e5m2;
  KGWAS_ASSERT(&fmt == &kFp4E2M1Format);
  return *e2m1;
}

const std::vector<float>& decode_table16(const FloatFormat& fmt) {
  auto build = [](const FloatFormat& format) {
    std::vector<float> table(65536);
    for (std::uint32_t bits = 0; bits < 65536; ++bits) {
      table[bits] = static_cast<float>(decode_bits(format, bits));
    }
    return table;
  };
  static const std::vector<float> fp16 = build(kFp16Format);
  static const std::vector<float> bf16 = build(kBf16Format);
  if (&fmt == &kFp16Format) return fp16;
  KGWAS_ASSERT(&fmt == &kBf16Format);
  return bf16;
}

// Exact FP32 -> FP16 / BF16 encoders.  Each returns quantize_bits(fmt, x)
// for every FP32 bit pattern `w` (every NaN becomes encode_bits'
// canonical 0x7FFF, whatever its sign or payload), and both are written
// branch-free over uint32_t lanes so quantize_16bit's loops auto-vectorize.

/// binary16.  Normal range: rebias the exponent (127 -> 15) and round to
/// nearest even on bit 13, with |x| clamped to [2^-14, 65520]; 65520 and
/// up round to the infinity code 0x7C00.  Subnormal range: adding 0.5f,
/// whose ulp is the binary16 quantum 2^-24, rounds |x| to a multiple of
/// 2^-24 (the FPU's ties-to-even), and the sum's low bits count the
/// quanta.  Each path sees its input clamped at 2^-14, where it yields
/// exactly 0x400, so `normal + subnormal - 0x400` picks the live one.
inline std::uint32_t encode_fp16(std::uint32_t w) {
  const std::uint32_t a = w & 0x7FFFFFFFu;
  const std::uint32_t nan = 0u - ((0x7F800000u - a) >> 31);  // ~0 iff NaN
  const std::uint32_t an = std::min(std::max(a, 0x38800000u), 0x477FF000u);
  const std::uint32_t normal =
      (an - 0x38000000u + 0x0FFFu + ((an >> 13) & 1u)) >> 13;
  const float as = std::bit_cast<float>(std::min(a, 0x38800000u));
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>(as + 0.5f) - 0x3F000000u;
  return (normal + subnormal - 0x400u) | (nan & 0x3FFu) |
         ((w >> 16) & 0x8000u & ~nan);
}

/// bfloat16: round to nearest even on bit 16.  The carry turns the
/// largest finite values into infinity, as the reference rounding does.
inline std::uint32_t encode_bf16(std::uint32_t w) {
  const std::uint32_t rounded = (w + 0x7FFFu + ((w >> 16) & 1u)) >> 16;
  return (w & 0x7FFFFFFFu) > 0x7F800000u ? 0x7FFFu : rounded;
}

void quantize_16bit(Precision precision, const float* src, std::uint16_t* out,
                    std::size_t n) {
  if (precision == Precision::kFp16) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint16_t>(
          encode_fp16(std::bit_cast<std::uint32_t>(src[i])));
    }
  } else {
    KGWAS_ASSERT(precision == Precision::kBf16);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint16_t>(
          encode_bf16(std::bit_cast<std::uint32_t>(src[i])));
    }
  }
}

/// The generic path for the 1-byte formats (FP8 variants, FP4).
void quantize_small_float(const FloatFormat& fmt, const float* src,
                          std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(quantize_bits(fmt, src[i]));
  }
}

void dequantize_small_float(const FloatFormat& fmt, const void* src, float* dst,
                            std::size_t n, std::size_t elem_bytes) {
  if (elem_bytes == 1) {
    const auto& table = decode_table8(fmt);
    const auto* in = static_cast<const std::uint8_t*>(src);
    for (std::size_t i = 0; i < n; ++i) dst[i] = table[in[i]];
  } else {
    KGWAS_ASSERT(elem_bytes == 2);
    const auto& table = decode_table16(fmt);
    const auto* in = static_cast<const std::uint16_t*>(src);
    for (std::size_t i = 0; i < n; ++i) dst[i] = table[in[i]];
  }
}

}  // namespace

void quantize_buffer(Precision precision, const float* src, void* dst,
                     std::size_t n) {
  // Empty buffers may be null; memcpy requires valid pointers even for 0.
  if (n == 0) return;
  switch (precision) {
    case Precision::kFp64: {
      auto* out = static_cast<double*>(dst);
      for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(src[i]);
      return;
    }
    case Precision::kFp32:
      std::memcpy(dst, src, n * sizeof(float));
      return;
    case Precision::kInt8: {
      auto* out = static_cast<std::int8_t*>(dst);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::int8_t>(
            quantize(Precision::kInt8, static_cast<double>(src[i])));
      }
      return;
    }
    case Precision::kFp16:
    case Precision::kBf16:
      quantize_16bit(precision, src, static_cast<std::uint16_t*>(dst), n);
      return;
    default:
      quantize_small_float(float_format(precision), src,
                           static_cast<std::uint8_t*>(dst), n);
  }
}

void dequantize_buffer(Precision precision, const void* src, float* dst,
                       std::size_t n) {
  if (n == 0) return;
  switch (precision) {
    case Precision::kFp64: {
      const auto* in = static_cast<const double*>(src);
      for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(in[i]);
      return;
    }
    case Precision::kFp32:
      std::memcpy(dst, src, n * sizeof(float));
      return;
    case Precision::kInt8: {
      const auto* in = static_cast<const std::int8_t*>(src);
      for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(in[i]);
      return;
    }
    default:
      dequantize_small_float(float_format(precision), src, dst, n,
                             bytes_per_element(precision));
  }
}

void quantize_inplace(Precision precision, float* data, std::size_t n) {
  switch (precision) {
    case Precision::kFp64:
    case Precision::kFp32:
      return;  // already at or above working precision
    case Precision::kInt8:
      for (std::size_t i = 0; i < n; ++i) {
        data[i] = static_cast<float>(
            quantize(Precision::kInt8, static_cast<double>(data[i])));
      }
      return;
    case Precision::kFp16:
    case Precision::kBf16: {
      // Encode, then decode through the table: bit-identical to
      // round_to_format, NaN included (both give the quiet NaN).
      const float* table = decode_table16(float_format(precision)).data();
      std::uint16_t codes[256];
      for (std::size_t i = 0; i < n; i += 256) {
        const std::size_t m = std::min<std::size_t>(256, n - i);
        quantize_16bit(precision, data + i, codes, m);
        for (std::size_t j = 0; j < m; ++j) data[i + j] = table[codes[j]];
      }
      return;
    }
    default: {
      const FloatFormat& fmt = float_format(precision);
      for (std::size_t i = 0; i < n; ++i) {
        data[i] = static_cast<float>(
            round_to_format(fmt, static_cast<double>(data[i])));
      }
    }
  }
}

const float* decode_table(Precision precision) {
  switch (precision) {
    case Precision::kFp64:
    case Precision::kFp32:
    case Precision::kInt8:
      return nullptr;
    case Precision::kFp16:
    case Precision::kBf16:
      return decode_table16(float_format(precision)).data();
    default:
      return decode_table8(float_format(precision)).data();
  }
}

void convert_buffer(Precision from, const void* src, Precision to, void* dst,
                    std::size_t n) {
  if (n == 0) return;
  if (from == to) {
    std::memcpy(dst, src, n * bytes_per_element(from));
    return;
  }
  if (from == Precision::kFp32) {
    quantize_buffer(to, static_cast<const float*>(src), dst, n);
    return;
  }
  if (to == Precision::kFp32) {
    dequantize_buffer(from, src, static_cast<float*>(dst), n);
    return;
  }
  std::vector<float> staging(n);
  dequantize_buffer(from, src, staging.data(), n);
  quantize_buffer(to, staging.data(), dst, n);
}

}  // namespace kgwas
