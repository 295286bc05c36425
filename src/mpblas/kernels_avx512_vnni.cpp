// AVX512-VNNI INT8 microkernel.  Compiled with -mavx512f -mavx512bw
// -mavx512vnni on x86 targets (see CMakeLists); the engine dispatches to it
// only when the avx512 variant is selected and cpu_features() reports
// AVX512-BW and AVX512-VNNI, so nothing here is reachable on older CPUs.
#include "mpblas/microkernel.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <cstring>

namespace kgwas::mpblas::kernels::detail {

namespace {

static_assert(kI8Mr == 32 && kI8Nr == 8 && kI8Group == 4,
              "the VNNI kernel is written for 32 x 8 tiles of 4-byte groups");

constexpr std::size_t kHalf = 16;  // rows per zmm of i32 lanes

std::int32_t load_group(const std::int8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 32 x 8 register tile: per k-group, two aligned zmm loads of A (16 rows
/// x 4 unsigned bytes each) and one 4-byte broadcast of B per column feed
/// 16 vpdpbusd, each summing 4 u8 x s8 products into every i32 lane with
/// a wrapping add.  16 accumulators + 2 A vectors + 1 broadcast stay well
/// inside the 32 zmm registers.  The column loops are unrolled explicitly:
/// GCC's default unrolling leaves the kernel about 20 % slower.
void gemm_i8_32x8_vnni(std::size_t groups, const std::uint8_t* a,
                       const std::int8_t* b, std::int32_t* acc) {
  __m512i lo[kI8Nr];
  __m512i hi[kI8Nr];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kI8Nr; ++j) {
    lo[j] = _mm512_setzero_si512();
    hi[j] = _mm512_setzero_si512();
  }
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint8_t* ag = a + g * kI8Mr * kI8Group;
    const std::int8_t* bg = b + g * kI8Nr * kI8Group;
    const __m512i a_lo = _mm512_load_si512(ag);
    const __m512i a_hi = _mm512_load_si512(ag + kHalf * kI8Group);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kI8Nr; ++j) {
      const __m512i bj = _mm512_set1_epi32(load_group(bg + j * kI8Group));
      lo[j] = _mm512_dpbusd_epi32(lo[j], a_lo, bj);
      hi[j] = _mm512_dpbusd_epi32(hi[j], a_hi, bj);
    }
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kI8Nr; ++j) {
    _mm512_store_si512(acc + j * kI8Mr, lo[j]);
    _mm512_store_si512(acc + j * kI8Mr + kHalf, hi[j]);
  }
}

}  // namespace

MicroKernelI8Fn avx512_vnni_i8_microkernel() { return gemm_i8_32x8_vnni; }

}  // namespace kgwas::mpblas::kernels::detail

#else  // kernel not compiled for this target

namespace kgwas::mpblas::kernels::detail {
MicroKernelI8Fn avx512_vnni_i8_microkernel() { return nullptr; }
}  // namespace kgwas::mpblas::kernels::detail

#endif
