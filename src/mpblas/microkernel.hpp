// Internal microkernel variant table of the packed GEMM/SYRK engine.
//
// Each ISA variant lives in its own translation unit compiled with that
// ISA's flags (see CMakeLists: kernels_avx2.cpp gets -mavx2 -mfma,
// kernels_avx512.cpp gets -mavx512f; the NEON variant needs no extra
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
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpblas/kernels.hpp"

namespace kgwas::mpblas::kernels::detail {

using MicroKernelFn = void (*)(std::size_t kb, const float* a, const float* b,
                               float* acc);

struct MicroKernel {
  Arch arch;
  const char* name;  ///< matches to_string(arch); used in logs/labels
  std::size_t mr;
  std::size_t nr;
  MicroKernelFn gemm;
};

/// Portable GNU-vector/scalar 8x6 kernel; always compiled in, always
/// runnable — the dispatch floor.  Defined in kernels.cpp.
const MicroKernel* generic_microkernel();

/// Hand-tiled variants, nullptr when not compiled for this target.
const MicroKernel* avx2_microkernel();    // 8x6, FMA intrinsics
const MicroKernel* avx512_microkernel();  // 16x6, zmm accumulators
const MicroKernel* neon_microkernel();    // 8x6, vfmaq

}  // namespace kgwas::mpblas::kernels::detail
