// Runtime precision tags and their numerical/storage properties.
//
// A `Precision` value labels how a tile is *stored*; arithmetic on narrow
// types always accumulates in FP32 (the tensor-core contract) or INT32
// (for INT8), which is why adaptive-precision decisions only need the
// storage unit roundoff.
#pragma once

#include <cstddef>
#include <string>

#include "precision/float_format.hpp"

namespace kgwas {

enum class Precision : unsigned char {
  kFp64 = 0,
  kFp32,
  kFp16,
  kBf16,
  kFp8E4M3,
  kFp8E5M2,
  kFp4E2M1,
  kInt8,
};

inline constexpr int kNumPrecisions = 8;

/// Bytes used to store one element.
std::size_t bytes_per_element(Precision precision);

/// Unit roundoff u of the storage format (2^-53 ... 2^-2).  INT8 reports
/// 0.5 (one quantization step of a unit-scaled integer grid) — callers
/// normally never make adaptive decisions for integer data.
double unit_roundoff(Precision precision);

/// Largest finite representable magnitude.
double max_finite(Precision precision);

/// Human-readable name ("fp16", "fp8_e4m3", ...).
std::string to_string(Precision precision);

/// Parses a name produced by to_string(); throws InvalidArgument otherwise.
Precision precision_from_string(const std::string& name);

/// Quantizes a value to `precision` storage and widens back to double.
/// FP64/FP32 pass through their native rounding; INT8 rounds to the
/// nearest integer in [-128, 127].
double quantize(Precision precision, double value);

/// Narrow-format descriptor for the emulated formats; throws for
/// FP64/FP32/INT8 which have no FloatFormat.
const FloatFormat& float_format(Precision precision);

}  // namespace kgwas
