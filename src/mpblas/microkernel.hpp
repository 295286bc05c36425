// Internal microkernel variant table of the packed GEMM/SYRK engine.
//
// Each ISA variant lives in its own translation unit compiled with that
// ISA's flags (see CMakeLists: kernels_avx2.cpp gets -mavx2 -mfma,
// kernels_avx512.cpp gets -mavx512f, kernels_avx512_vnni.cpp gets
// -mavx512f -mavx512bw -mavx512vnni; the NEON variant needs no extra
// flags on aarch64) so the rest of the library keeps its baseline ISA.
// A variant TU exports exactly one accessor returning its descriptor, or
// nullptr when the variant is not compiled into this binary — runtime
// dispatch in kernels.cpp then intersects "compiled in" with what
// cpu_features() reports the host supports.
//
// ABI: a microkernel computes a full MR x NR register tile over a length
// `kb` packed-panel dot product.  `a` is an MR-row micro-panel (column l
// at a + l * MR, 32-byte aligned for MR == 8, 64-byte for MR == 16), `b`
// an NR-column micro-panel (row l at b + l * NR), `acc` a column-major
// MR x NR output block (ld = MR) the kernel fully overwrites.  Edge
// handling is the caller's job: panels are zero-padded to MR/NR, and the
// driver masks the store of partial tiles.
//
// A variant also carries the engine's exact FP32 exponential
// (exp_to_f32, mpblas/exp_f32.hpp), compiled in its TU for its ISA.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpblas/kernels.hpp"

namespace kgwas::mpblas::kernels::detail {

using MicroKernelFn = void (*)(std::size_t kb, const float* a, const float* b,
                               float* acc);

/// out[i] = float(std::exp(x[i])) for i < n; returns the fallback count.
using ExpToF32Fn = std::size_t (*)(const double* x, std::size_t n,
                                   float* out);

struct MicroKernel {
  Arch arch;
  const char* name;  ///< matches to_string(arch); used in logs/labels
  std::size_t mr;
  std::size_t nr;
  MicroKernelFn gemm;
  ExpToF32Fn exp_to_f32;
};

/// Portable GNU-vector/scalar 8x6 kernel; always compiled in, always
/// runnable — the dispatch floor.  Defined in kernels.cpp.
const MicroKernel* generic_microkernel();

/// Hand-tiled variants, nullptr when not compiled for this target.
const MicroKernel* avx2_microkernel();    // 8x6, FMA intrinsics
const MicroKernel* avx512_microkernel();  // 16x6, zmm accumulators
const MicroKernel* neon_microkernel();    // 8x6, vfmaq

// ------------------------------------------------------------ INT8 panels
//
// Every INT8 kernel runs on the same kI8Mr x kI8Nr panel geometry, so the
// INT8 path packs once and its integers are identical across kernels.
// Operands are packed in 4-byte k-groups (the vpdpbusd operand shape):
// k-group g of an A micro-panel holds, for each of its kI8Mr rows, the 4
// bytes of op(A)(row, 4g .. 4g+3) at a + (g * kI8Mr + row) * 4, stored as
// unsigned bytes a + 128; k-group g of a B micro-panel holds, for each of
// its kI8Nr columns, the 4 signed bytes of op(B)(4g .. 4g+3, col) at
// b + (g * kI8Nr + col) * 4.  The k remainder is zero-padded (B bytes 0),
// so padding contributes nothing.  A micro-panels are 64-byte aligned.
//
// An INT8 microkernel writes acc[row + col * kI8Mr] = sum over the
// `groups` k-groups of (a + 128) * b, wrapping modulo 2^32; the driver
// subtracts 128 * colsum(B) in the same modular arithmetic, which leaves
// the exact product whenever it fits in i32.
inline constexpr std::size_t kI8Mr = 32;
inline constexpr std::size_t kI8Nr = 8;
inline constexpr std::size_t kI8Group = 4;

using MicroKernelI8Fn = void (*)(std::size_t groups, const std::uint8_t* a,
                                 const std::int8_t* b, std::int32_t* acc);

/// The AVX512-VNNI vpdpbusd kernel, nullptr when not compiled for this
/// target.  The portable INT8 kernel lives in kernels.cpp.
MicroKernelI8Fn avx512_vnni_i8_microkernel();

}  // namespace kgwas::mpblas::kernels::detail
