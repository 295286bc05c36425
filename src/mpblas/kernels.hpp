// Packed cache-blocked GEMM/SYRK engine (BLIS-style) with
// decode-on-pack mixed-precision panels.
//
// Every FP32 GEMM-class call runs here.  The scalar triple loops in
// mpblas/blas.cpp (kgwas::reference: no cache blocking, no packing)
// remain only as the FP64 path and the test oracle.  This engine
// supplies the compute core the paper's speedup story assumes:
//
//  * mc/kc/nc cache blocking (jc -> pc -> ic loop nest) with A packed
//    into MR-row micro-panels and B into NR-column micro-panels, both in
//    64-byte-aligned TilePool-backed buffers that persist per thread
//    (zero steady-state pool traffic);
//  * a register-tiled MR x NR microkernel written so compilers
//    auto-vectorize it: restrict pointers, contiguous unit-stride inner
//    loads from the packed panels, compile-time tile shape, FMA-friendly
//    accumulator array;
//  * decode-on-pack: `OperandView` describes an operand in its *storage*
//    precision (FP32/FP64/FP16/BF16/FP8/FP4/INT8) and packing decodes
//    straight from storage bytes into the FP32 panels via the precision
//    layer's decode tables — the full-tile FP32 scratch round-trip of the
//    old mixed-precision path disappears.  A view can also request
//    tensor-core operand rounding (`round_to`), which is applied to the
//    packed panels (numerically the same per-element rounding as
//    quantize_inplace on a materialized copy).
//
// The engine has one configuration, derived from the host: the
// *microkernel variant* (hand-tiled AVX-512 / AVX2+FMA / NEON kernels
// compiled into their own translation units, dispatched at runtime from
// the host's probed CPU features; KGWAS_GEMM_ARCH pins one) and the
// analytic BLIS cache blocking for that variant's micro-tile.  Results
// are deterministic for a fixed variant + blocking, so the shared-memory
// and distributed paths stay bitwise identical to each other; different
// variants may differ from each other within normal FP32 contraction
// tolerance.  The float engine accumulates in FP32.  INT8 x INT8 products
// take one integer path instead: 4-byte k-group panels, an AVX512-VNNI
// vpdpbusd microkernel (or a portable one on the same panels), and two
// stores — the i32 store of gemm_i8_i32/syrk_i8_i32 (mpblas/mixed.hpp)
// and gemm_view's alpha-scaled FP32 store.  It is exact whenever the true
// result fits in i32, so its integers are identical under every variant.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "mpblas/types.hpp"
#include "precision/precision.hpp"

namespace kgwas::mpblas::kernels {

/// Register micro-tile shape of the *generic* (portable GNU-vector)
/// variant.  MR rows stream unit-stride from the packed A panel (vector
/// loads); NR columns broadcast from the packed B panel.  8 x 6 keeps the
/// accumulator block within 16 SSE registers on baseline x86-64.  The
/// hand-tiled ISA variants bring their own shapes (AVX-512 runs 16 x 6);
/// query the selected variant's shape via gemm_mr()/gemm_nr().
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 6;

/// Granularity of the analytic kc: a multiple of kKR streams cleanly
/// through every variant's packed panels.  Programmatic
/// set_gemm_blocking() values are exempt (tests exercise odd blockings).
inline constexpr std::size_t kKR = 8;

/// Microkernel variants.  kGeneric is always compiled and always
/// runnable; the others exist only when the toolchain targets an ISA that
/// can compile them, and are dispatched only when the host CPU supports
/// them.
enum class Arch { kGeneric, kAvx2, kAvx512, kNeon };

/// "generic" | "avx2" | "avx512" | "neon" — the KGWAS_GEMM_ARCH spellings.
const char* to_string(Arch arch);

/// Variants compiled into this binary (kGeneric always included).
std::vector<Arch> compiled_archs();

/// Compiled variants the *host* can execute, best-last is not implied —
/// always includes kGeneric.  This is the set the parity tests iterate.
std::vector<Arch> available_archs();

/// The variant the packed engine dispatches to: the set_gemm_arch()
/// override when set, else KGWAS_GEMM_ARCH when set, valid and available,
/// else the best available variant (avx512 > avx2 > neon > generic).
Arch selected_arch();

/// Test/bench override; nullopt re-reads KGWAS_GEMM_ARCH on next query.
/// The blocking follows the new variant's micro-tile shape.
void set_gemm_arch(std::optional<Arch> arch);

/// Micro-tile shape of the currently selected variant.
std::size_t gemm_mr();
std::size_t gemm_nr();

/// The INT8 microkernel the engine runs: "avx512_vnni" when the avx512
/// variant is selected and the host reports AVX512-BW and AVX512-VNNI,
/// else "generic", the portable kernel.  Both compute on the same panels
/// and produce identical integers.
const char* int8_kernel();

/// out[i] = float(std::exp(x[i])) for i < n, bit for bit, on the selected
/// variant's vector instantiation (mpblas/exp_f32.hpp).  A lane whose
/// fast value lies too close to an FP32 rounding midpoint, or whose x is
/// outside [-87, -0] (positive, +0, NaN, Inf, or an FP32-subnormal
/// result), falls back to std::exp; returns the number of such lanes.
/// The output bits do not depend on the variant; the count may.
std::size_t exp_to_f32(const double* x, std::size_t n, float* out);

/// Cache blocking parameters (elements): the packed mc x kc A block is
/// the L2 resident, the kc x nc B block the L3 resident, and one A plus
/// one B micro-panel of length kc share L1d.
struct Blocking {
  std::size_t mc = 0;
  std::size_t kc = 0;
  std::size_t nc = 0;
};

/// The BLIS occupancy model for an mr x nr micro-tile of `elem_bytes`
/// elements on this host (Low et al., "Analytical Modeling Is Enough for
/// High-Performance BLIS", ACM TOMS 43(2), 2016): kc so one A and one B
/// micro-panel fill about half of L1d, mc so the A block fills about half
/// of L2, nc so the B block fills about half of L3.  kc is a multiple of
/// kKR, mc of mr, nc of nr; mc and nc are capped so pack buffers stay
/// bounded on huge LLCs.  The INT8 path uses its 32 x 8 tile at one byte.
Blocking analytic_blocking(std::size_t mr, std::size_t nr,
                           std::size_t elem_bytes = sizeof(float));

/// The engine's FP32 blocking: the set_gemm_blocking() override when
/// set, else analytic_blocking() of the selected variant's micro-tile.
/// The INT8 path follows the same override.
Blocking gemm_blocking();

/// Test override (clamped to >= 1 per member, otherwise taken verbatim —
/// no kKR rounding); nullopt restores the analytic blocking.
void set_gemm_blocking(std::optional<Blocking> blocking);

/// An operand in storage precision: element (i, j) of op(X) is read from
/// `data` (column-major, leading dimension `ld`, transposed per `trans`),
/// decoded from `storage` to FP32 during packing, then optionally rounded
/// through `round_to` (tensor-core operand rounding; kFp32 = no-op).
struct OperandView {
  const void* data = nullptr;
  std::size_t ld = 0;
  Trans trans = Trans::kNoTrans;
  Precision storage = Precision::kFp32;
  Precision round_to = Precision::kFp32;
};

inline OperandView fp32_view(const float* data, std::size_t ld, Trans trans,
                             Precision round_to = Precision::kFp32) {
  return {data, ld, trans, Precision::kFp32, round_to};
}

/// C <- alpha * op(A) * op(B) + beta * C with op(A) m x k, op(B) k x n,
/// C FP32 m x n.  All shapes, strides and trans combinations supported;
/// operands decode from their storage precision during packing.
void gemm_view(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const OperandView& a, const OperandView& b, float beta,
               float* c, std::size_t ldc);

/// C <- alpha * op(A) * op(A)^T + beta * C on the `uplo` triangle only,
/// with op(A) n x k described by `a` (trans inside the view: kNoTrans
/// means A is n x k, kTrans means A is k x n and op(A) = A^T).  Micro
/// tiles entirely outside the triangle are skipped; crossing tiles mask
/// their stores, so out-of-triangle elements of C are never referenced.
void syrk_view(Uplo uplo, std::size_t n, std::size_t k, float alpha,
               const OperandView& a, float beta, float* c, std::size_t ldc);

}  // namespace kgwas::mpblas::kernels
