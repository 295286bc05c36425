// AVX-512F 16x6 microkernel variant.  Compiled with -mavx512f on x86
// targets (see CMakeLists); selected at runtime only when cpu_features()
// reports AVX-512F support.
#include "mpblas/microkernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "mpblas/exp_f32.hpp"

namespace kgwas::mpblas::kernels::detail {

namespace {

constexpr std::size_t kAvx512Mr = 16;
constexpr std::size_t kAvx512Nr = 6;

/// 16 rows per zmm vector: one full zmm accumulator per micro-tile
/// column (6 accumulators + 1 streamed A vector of 32 zmm registers),
/// FMA-contracted.  The 16-row micro-panels are 64-byte aligned by
/// construction (64-byte buffers, 16 * sizeof(float) panel rows), so the
/// A loads are aligned zmm loads.  Twice the row throughput of the 8-row
/// kernels per issued FMA.
void gemm_16x6_avx512(std::size_t kb, const float* a, const float* b,
                      float* acc) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  __m512 acc4 = _mm512_setzero_ps();
  __m512 acc5 = _mm512_setzero_ps();
  for (std::size_t l = 0; l < kb; ++l) {
    const __m512 av = _mm512_load_ps(a + l * kAvx512Mr);
    const float* bl = b + l * kAvx512Nr;
    acc0 = _mm512_fmadd_ps(av, _mm512_set1_ps(bl[0]), acc0);
    acc1 = _mm512_fmadd_ps(av, _mm512_set1_ps(bl[1]), acc1);
    acc2 = _mm512_fmadd_ps(av, _mm512_set1_ps(bl[2]), acc2);
    acc3 = _mm512_fmadd_ps(av, _mm512_set1_ps(bl[3]), acc3);
    acc4 = _mm512_fmadd_ps(av, _mm512_set1_ps(bl[4]), acc4);
    acc5 = _mm512_fmadd_ps(av, _mm512_set1_ps(bl[5]), acc5);
  }
  _mm512_store_ps(acc + 0 * kAvx512Mr, acc0);
  _mm512_store_ps(acc + 1 * kAvx512Mr, acc1);
  _mm512_store_ps(acc + 2 * kAvx512Mr, acc2);
  _mm512_store_ps(acc + 3 * kAvx512Mr, acc3);
  _mm512_store_ps(acc + 4 * kAvx512Mr, acc4);
  _mm512_store_ps(acc + 5 * kAvx512Mr, acc5);
}

}  // namespace

const MicroKernel* avx512_microkernel() {
  static const MicroKernel kernel{Arch::kAvx512, "avx512", kAvx512Mr,
                                  kAvx512Nr, gemm_16x6_avx512,
                                  exp_to_f32_lanes};
  return &kernel;
}

}  // namespace kgwas::mpblas::kernels::detail

#else  // variant not compiled for this target

namespace kgwas::mpblas::kernels::detail {
const MicroKernel* avx512_microkernel() { return nullptr; }
}  // namespace kgwas::mpblas::kernels::detail

#endif
