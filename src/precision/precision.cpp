#include "precision/precision.hpp"

#include <cmath>
#include <limits>

#include "common/status.hpp"

namespace kgwas {

std::size_t bytes_per_element(Precision precision) {
  switch (precision) {
    case Precision::kFp64: return 8;
    case Precision::kFp32: return 4;
    case Precision::kFp16:
    case Precision::kBf16: return 2;
    case Precision::kFp8E4M3:
    case Precision::kFp8E5M2:
    case Precision::kInt8: return 1;
    case Precision::kFp4E2M1: return 1;  // stored unpacked, one code per byte
  }
  KGWAS_ASSERT(false);
  return 0;
}

double unit_roundoff(Precision precision) {
  switch (precision) {
    case Precision::kFp64: return std::ldexp(1.0, -53);
    case Precision::kFp32: return std::ldexp(1.0, -24);
    case Precision::kFp16: return kFp16Format.unit_roundoff();
    case Precision::kBf16: return kBf16Format.unit_roundoff();
    case Precision::kFp8E4M3: return kFp8E4M3Format.unit_roundoff();
    case Precision::kFp8E5M2: return kFp8E5M2Format.unit_roundoff();
    case Precision::kFp4E2M1: return kFp4E2M1Format.unit_roundoff();
    case Precision::kInt8: return 0.5;
  }
  KGWAS_ASSERT(false);
  return 0.0;
}

double max_finite(Precision precision) {
  switch (precision) {
    case Precision::kFp64: return std::numeric_limits<double>::max();
    case Precision::kFp32: return std::numeric_limits<float>::max();
    case Precision::kFp16: return kFp16Format.max_finite();
    case Precision::kBf16: return kBf16Format.max_finite();
    case Precision::kFp8E4M3: return kFp8E4M3Format.max_finite();
    case Precision::kFp8E5M2: return kFp8E5M2Format.max_finite();
    case Precision::kFp4E2M1: return kFp4E2M1Format.max_finite();
    case Precision::kInt8: return 127.0;
  }
  KGWAS_ASSERT(false);
  return 0.0;
}

std::string to_string(Precision precision) {
  switch (precision) {
    case Precision::kFp64: return "fp64";
    case Precision::kFp32: return "fp32";
    case Precision::kFp16: return "fp16";
    case Precision::kBf16: return "bf16";
    case Precision::kFp8E4M3: return "fp8_e4m3";
    case Precision::kFp8E5M2: return "fp8_e5m2";
    case Precision::kFp4E2M1: return "fp4_e2m1";
    case Precision::kInt8: return "int8";
  }
  KGWAS_ASSERT(false);
  return {};
}

Precision precision_from_string(const std::string& name) {
  if (name == "fp64") return Precision::kFp64;
  if (name == "fp32") return Precision::kFp32;
  if (name == "fp16") return Precision::kFp16;
  if (name == "bf16") return Precision::kBf16;
  if (name == "fp8" || name == "fp8_e4m3") return Precision::kFp8E4M3;
  if (name == "fp8_e5m2") return Precision::kFp8E5M2;
  if (name == "fp4" || name == "fp4_e2m1") return Precision::kFp4E2M1;
  if (name == "int8") return Precision::kInt8;
  throw InvalidArgument("unknown precision name: " + name);
}

double quantize(Precision precision, double value) {
  switch (precision) {
    case Precision::kFp64: return value;
    case Precision::kFp32: return static_cast<double>(static_cast<float>(value));
    case Precision::kInt8: {
      if (std::isnan(value)) return 0.0;
      const double rounded = std::nearbyint(value);
      return rounded < -128.0 ? -128.0 : (rounded > 127.0 ? 127.0 : rounded);
    }
    default: return round_to_format(float_format(precision), value);
  }
}

const FloatFormat& float_format(Precision precision) {
  switch (precision) {
    case Precision::kFp16: return kFp16Format;
    case Precision::kBf16: return kBf16Format;
    case Precision::kFp8E4M3: return kFp8E4M3Format;
    case Precision::kFp8E5M2: return kFp8E5M2Format;
    case Precision::kFp4E2M1: return kFp4E2M1Format;
    default:
      throw InvalidArgument("precision " + to_string(precision) +
                            " has no narrow float format descriptor");
  }
}

}  // namespace kgwas
