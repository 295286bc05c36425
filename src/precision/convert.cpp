#include "precision/convert.hpp"

#include <array>
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

void quantize_small_float(const FloatFormat& fmt, const float* src, void* dst,
                          std::size_t n, std::size_t elem_bytes) {
  if (elem_bytes == 1) {
    auto* out = static_cast<std::uint8_t*>(dst);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(quantize_bits(fmt, src[i]));
    }
  } else {
    KGWAS_ASSERT(elem_bytes == 2);
    auto* out = static_cast<std::uint16_t*>(dst);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint16_t>(quantize_bits(fmt, src[i]));
    }
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
    default:
      quantize_small_float(float_format(precision), src, dst, n,
                           bytes_per_element(precision));
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
  std::vector<float> staging(n);
  dequantize_buffer(from, src, staging.data(), n);
  quantize_buffer(to, staging.data(), dst, n);
}

}  // namespace kgwas
