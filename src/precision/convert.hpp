// Bulk precision conversion between FP32 working buffers and narrow
// storage buffers.  These are the routines the dataflow runtime invokes on
// task edges ("convert at the sender when the destination wants lower
// precision") and that the tile container uses to materialize a tile in a
// given storage format.
#pragma once

#include <cstddef>
#include <cstdint>

#include "precision/precision.hpp"

namespace kgwas {

/// Encodes `n` FP32 values into the storage format of `precision`.
/// `dst` must provide n * bytes_per_element(precision) bytes.
/// INT8 saturates to [-128, 127] with round-to-nearest-even.  Every
/// narrow float code equals quantize_bits(fmt, x); FP16 and BF16 get it
/// from a vectorized integer encoder, FP8/FP4 per element.
void quantize_buffer(Precision precision, const float* src, void* dst, std::size_t n);

/// Decodes `n` stored values back into FP32.
void dequantize_buffer(Precision precision, const void* src, float* dst, std::size_t n);

/// Rounds `n` FP32 values through the storage format in place (the operand
/// rounding a tensor core performs before multiplying).
void quantize_inplace(Precision precision, float* data, std::size_t n);

/// Converts a buffer stored in `from` into storage `to` via FP32.
void convert_buffer(Precision from, const void* src, Precision to, void* dst,
                    std::size_t n);

/// Read-only FP32 decode table of a narrow float format: 256 entries for
/// the 1-byte formats (FP8 variants, FP4), 65536 for the 2-byte ones
/// (FP16, BF16).  Returns nullptr for kFp64/kFp32/kInt8, whose decode is
/// a plain cast.  Lets bulk consumers (the packed GEMM engine's
/// decode-on-pack) read storage bytes directly without a staging decode.
const float* decode_table(Precision precision);

}  // namespace kgwas
