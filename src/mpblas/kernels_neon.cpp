// NEON/ASIMD 8x6 microkernel variant.  NEON is baseline on aarch64, so
// this TU needs no special flags there; on 32-bit ARM it compiles only
// when the toolchain already targets NEON.
#include "mpblas/microkernel.hpp"

#if defined(__ARM_NEON) || defined(__aarch64__)

#include <arm_neon.h>

#include "mpblas/exp_f32.hpp"

namespace kgwas::mpblas::kernels::detail {

namespace {

constexpr std::size_t kNeonMr = 8;
constexpr std::size_t kNeonNr = 6;

/// Two 4-lane vectors per micro-tile column (12 accumulators + 2
/// streamed A vectors of 32 NEON registers), fused via vfmaq_n_f32.
void gemm_8x6_neon(std::size_t kb, const float* a, const float* b,
                   float* acc) {
  float32x4_t acc_lo[kNeonNr];
  float32x4_t acc_hi[kNeonNr];
  for (std::size_t j = 0; j < kNeonNr; ++j) {
    acc_lo[j] = vdupq_n_f32(0.0f);
    acc_hi[j] = vdupq_n_f32(0.0f);
  }
  for (std::size_t l = 0; l < kb; ++l) {
    const float32x4_t av_lo = vld1q_f32(a + l * kNeonMr);
    const float32x4_t av_hi = vld1q_f32(a + l * kNeonMr + 4);
    const float* bl = b + l * kNeonNr;
    for (std::size_t j = 0; j < kNeonNr; ++j) {
      acc_lo[j] = vfmaq_n_f32(acc_lo[j], av_lo, bl[j]);
      acc_hi[j] = vfmaq_n_f32(acc_hi[j], av_hi, bl[j]);
    }
  }
  for (std::size_t j = 0; j < kNeonNr; ++j) {
    vst1q_f32(acc + j * kNeonMr, acc_lo[j]);
    vst1q_f32(acc + j * kNeonMr + 4, acc_hi[j]);
  }
}

}  // namespace

const MicroKernel* neon_microkernel() {
  static const MicroKernel kernel{Arch::kNeon, "neon", kNeonMr, kNeonNr,
                                  gemm_8x6_neon, exp_to_f32_lanes};
  return &kernel;
}

}  // namespace kgwas::mpblas::kernels::detail

#else  // variant not compiled for this target

namespace kgwas::mpblas::kernels::detail {
const MicroKernel* neon_microkernel() { return nullptr; }
}  // namespace kgwas::mpblas::kernels::detail

#endif
