// AVX2 + FMA 8x6 microkernel variant.  Compiled with -mavx2 -mfma on
// x86 targets (see CMakeLists) and selected at runtime only after
// cpu_features() confirms the host supports both — nothing in this TU is
// reachable otherwise, so the per-TU flags never leak illegal
// instructions onto older CPUs.
#include "mpblas/microkernel.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "mpblas/exp_f32.hpp"

namespace kgwas::mpblas::kernels::detail {

namespace {

constexpr std::size_t kAvx2Mr = 8;
constexpr std::size_t kAvx2Nr = 6;

/// One ymm accumulator per micro-tile column (6 live accumulators + one
/// streamed A vector = 7 of 16 ymm registers), FMA-contracted.  Differs
/// from the generic GNU-vector kernel only in guaranteed fmadd issue —
/// same panel layout, same summation order per element.
void gemm_8x6_avx2(std::size_t kb, const float* a, const float* b,
                   float* acc) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  __m256 acc4 = _mm256_setzero_ps();
  __m256 acc5 = _mm256_setzero_ps();
  for (std::size_t l = 0; l < kb; ++l) {
    const __m256 av = _mm256_load_ps(a + l * kAvx2Mr);
    const float* bl = b + l * kAvx2Nr;
    acc0 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bl + 0), acc0);
    acc1 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bl + 1), acc1);
    acc2 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bl + 2), acc2);
    acc3 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bl + 3), acc3);
    acc4 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bl + 4), acc4);
    acc5 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bl + 5), acc5);
  }
  _mm256_store_ps(acc + 0 * kAvx2Mr, acc0);
  _mm256_store_ps(acc + 1 * kAvx2Mr, acc1);
  _mm256_store_ps(acc + 2 * kAvx2Mr, acc2);
  _mm256_store_ps(acc + 3 * kAvx2Mr, acc3);
  _mm256_store_ps(acc + 4 * kAvx2Mr, acc4);
  _mm256_store_ps(acc + 5 * kAvx2Mr, acc5);
}

}  // namespace

const MicroKernel* avx2_microkernel() {
  static const MicroKernel kernel{Arch::kAvx2, "avx2", kAvx2Mr, kAvx2Nr,
                                  gemm_8x6_avx2, exp_to_f32_lanes};
  return &kernel;
}

}  // namespace kgwas::mpblas::kernels::detail

#else  // variant not compiled for this target

namespace kgwas::mpblas::kernels::detail {
const MicroKernel* avx2_microkernel() { return nullptr; }
}  // namespace kgwas::mpblas::kernels::detail

#endif
