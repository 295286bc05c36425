// Property-based comparison of the cache-blocked SIMD GEMM/SYRK engine
// (mpblas/kernels.hpp) against the scalar kgwas::reference loops: random
// shapes and strides (m, n, k not multiples of MR/NR, lda > m), all Trans
// combinations, alpha/beta in {0, 1, -1, 0.5}, per-precision tolerances,
// kc-remainder panels, and the TilePool-stats assertion that
// narrow-storage tile GEMMs never materialize full-tile FP32 operand
// scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/tile_kernels.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/mixed.hpp"
#include "precision/convert.hpp"
#include "tile/tile.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

/// Restores the arch/blocking overrides on scope exit so test order never
/// leaks engine configuration.
struct ScopedEngineConfig {
  ~ScopedEngineConfig() {
    kernels::set_gemm_arch(std::nullopt);
    kernels::set_gemm_blocking(std::nullopt);
  }
};

std::vector<float> random_buffer(std::size_t n, Rng& rng) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.normal());
  return out;
}

/// Packed and reference kernels sum in different orders, so elements can
/// differ by a few ULPs per accumulated term.
void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, std::size_t k,
                  const std::string& label, float tol_scale = 1.0f) {
  ASSERT_EQ(got.size(), want.size());
  const float tol =
      tol_scale * 1e-5f * (1.0f + std::sqrt(static_cast<float>(k + 1)));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float bound = tol * (1.0f + std::fabs(want[i]));
    EXPECT_NEAR(got[i], want[i], bound) << label << " element " << i;
  }
}

struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
  float alpha, beta;
  std::size_t pad_a, pad_b, pad_c;
};

void run_gemm_case(const GemmCase& gc, Rng& rng) {
  const std::size_t a_rows = gc.ta == Trans::kNoTrans ? gc.m : gc.k;
  const std::size_t a_cols = gc.ta == Trans::kNoTrans ? gc.k : gc.m;
  const std::size_t b_rows = gc.tb == Trans::kNoTrans ? gc.k : gc.n;
  const std::size_t b_cols = gc.tb == Trans::kNoTrans ? gc.n : gc.k;
  const std::size_t lda = a_rows + gc.pad_a;
  const std::size_t ldb = b_rows + gc.pad_b;
  const std::size_t ldc = gc.m + gc.pad_c;

  const std::vector<float> a = random_buffer(lda * a_cols, rng);
  const std::vector<float> b = random_buffer(ldb * b_cols, rng);
  const std::vector<float> c0 = random_buffer(ldc * gc.n, rng);

  std::vector<float> c_ref = c0;
  reference::gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda,
                  b.data(), ldb, gc.beta, c_ref.data(), ldc);

  std::vector<float> c_packed = c0;
  gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda, b.data(), ldb,
       gc.beta, c_packed.data(), ldc);

  // Padding rows between columns of C must never be touched.
  for (std::size_t j = 0; j < gc.n; ++j) {
    for (std::size_t i = gc.m; i < ldc; ++i) {
      ASSERT_EQ(c_packed[i + j * ldc], c0[i + j * ldc])
          << "C padding touched at (" << i << ", " << j << ")";
    }
  }
  expect_close(c_packed, c_ref, gc.k,
               "gemm m=" + std::to_string(gc.m) + " n=" +
                   std::to_string(gc.n) + " k=" + std::to_string(gc.k));
}

TEST(GemmEngineTest, PackedMatchesReferenceOverRandomShapes) {
  ScopedEngineConfig restore;
  Rng rng(20260730);
  const Trans kTrans[] = {Trans::kNoTrans, Trans::kTrans};
  const float kAlphas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  const float kBetas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  for (int iter = 0; iter < 60; ++iter) {
    GemmCase gc;
    gc.m = 1 + rng.uniform_index(97);
    gc.n = 1 + rng.uniform_index(97);
    gc.k = 1 + rng.uniform_index(97);
    gc.ta = kTrans[rng.uniform_index(2)];
    gc.tb = kTrans[rng.uniform_index(2)];
    gc.alpha = kAlphas[rng.uniform_index(4)];
    gc.beta = kBetas[rng.uniform_index(4)];
    gc.pad_a = rng.uniform_index(5);
    gc.pad_b = rng.uniform_index(5);
    gc.pad_c = rng.uniform_index(5);
    run_gemm_case(gc, rng);
  }
}

TEST(GemmEngineTest, KcRemainderPanels) {
  ScopedEngineConfig restore;
  Rng rng(7);
  // Deliberately small, non-MR/NR-multiple blocking so every k below
  // exercises full kc panels, a remainder panel, or both — and mc/nc
  // remainders land on partial micro-tiles.
  kernels::set_gemm_blocking(kernels::Blocking{12, 16, 18});
  // The override is taken verbatim: no kKR or micro-tile rounding.
  const kernels::Blocking blk = kernels::gemm_blocking();
  EXPECT_EQ(blk.mc, 12u);
  EXPECT_EQ(blk.kc, 16u);
  EXPECT_EQ(blk.nc, 18u);
  for (std::size_t k : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                        std::size_t{17}, std::size_t{32}, std::size_t{33},
                        std::size_t{47}}) {
    GemmCase gc{13, 19, k,   Trans::kNoTrans, Trans::kTrans,
                1.0f, 0.5f, 2, 1,             3};
    run_gemm_case(gc, rng);
    GemmCase gc2{25, 7,  k, Trans::kTrans, Trans::kNoTrans,
                 -1.0f, 1.0f, 0, 2,           1};
    run_gemm_case(gc2, rng);
  }
}

TEST(GemmEngineTest, SyrkPackedMatchesReferenceAndMasksTriangle) {
  ScopedEngineConfig restore;
  Rng rng(11);
  const float kScales[] = {0.0f, 1.0f, -1.0f, 0.5f};
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(70);
    const std::size_t k = 1 + rng.uniform_index(70);
    const Trans trans = rng.uniform_index(2) == 0 ? Trans::kNoTrans
                                                  : Trans::kTrans;
    const Uplo uplo = rng.uniform_index(2) == 0 ? Uplo::kLower : Uplo::kUpper;
    const float alpha = kScales[rng.uniform_index(4)];
    const float beta = kScales[rng.uniform_index(4)];
    const std::size_t a_rows = trans == Trans::kNoTrans ? n : k;
    const std::size_t a_cols = trans == Trans::kNoTrans ? k : n;
    const std::size_t lda = a_rows + rng.uniform_index(4);
    const std::size_t ldc = n + rng.uniform_index(4);
    const std::vector<float> a = random_buffer(lda * a_cols, rng);
    const std::vector<float> c0 = random_buffer(ldc * n, rng);

    std::vector<float> c_ref = c0;
    reference::syrk(uplo, trans, n, k, alpha, a.data(), lda, beta,
                    c_ref.data(), ldc);

    std::vector<float> c_packed = c0;
    syrk(uplo, trans, n, k, alpha, a.data(), lda, beta, c_packed.data(), ldc);

    // Only the uplo triangle may be referenced; everything else must be
    // byte-identical to the input (including the ldc padding rows).
    const bool lower = uplo == Uplo::kLower;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < ldc; ++i) {
        const bool in_triangle =
            i < n && (lower ? i >= j : i <= j);
        if (!in_triangle) {
          ASSERT_EQ(c_packed[i + j * ldc], c0[i + j * ldc])
              << "out-of-triangle element touched at (" << i << ", " << j
              << ")";
        }
      }
    }
    expect_close(c_packed, c_ref, k, "syrk n=" + std::to_string(n));
  }
}

TEST(GemmEngineTest, BlockedTrsmMatchesReference) {
  ScopedEngineConfig restore;
  Rng rng(13);
  // n > 64 triggers the blocked rank-k-update path of the packed TRSM.
  for (std::size_t n : {std::size_t{65}, std::size_t{96}, std::size_t{130}}) {
    const std::size_t m = 37;
    std::vector<float> l = random_buffer(n * n, rng);
    for (std::size_t j = 0; j < n; ++j) {
      l[j + j * n] = 2.0f + std::fabs(l[j + j * n]);  // well-conditioned
    }
    const std::vector<float> b0 = random_buffer(m * n, rng);

    // Oracle: the unblocked column loop, run in FP64 on the same inputs.
    const std::vector<double> l64(l.begin(), l.end());
    std::vector<double> b64(b0.begin(), b0.end());
    trsm(Side::kRight, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, m, n, 1.0,
         l64.data(), n, b64.data(), m);
    const std::vector<float> b_ref(b64.begin(), b64.end());

    std::vector<float> b_packed = b0;
    trsm(Side::kRight, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, m, n,
         1.0f, l.data(), n, b_packed.data(), m);

    // Forward-substitution error compounds across columns; loosen by the
    // column count.
    expect_close(b_packed, b_ref, n, "trsm n=" + std::to_string(n), 20.0f);
  }
}

Tile random_tile(std::size_t rows, std::size_t cols, Precision precision,
                 Rng& rng) {
  Matrix<float> values(rows, cols);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = static_cast<float>(rng.normal());
  }
  Tile t(rows, cols, precision);
  t.from_fp32(values);
  return t;
}

/// Oracle for tile_gemm (C -= A * B^T): decode all three tiles into
/// full-tile FP32 copies, run the scalar loops, re-encode C.
void reference_tile_gemm(const Tile& a, const Tile& b, Tile& c) {
  const Matrix<float> av = a.to_fp32();
  const Matrix<float> bv = b.to_fp32();
  Matrix<float> cv = c.to_fp32();
  reference::gemm(Trans::kNoTrans, Trans::kTrans, c.rows(), c.cols(),
                  a.cols(), -1.0f, av.data(), a.rows(), bv.data(), b.rows(),
                  1.0f, cv.data(), c.rows());
  c.from_fp32(cv);
}

TEST(GemmEngineTest, TileGemmPackedMatchesReferencePerPrecision) {
  ScopedEngineConfig restore;
  Rng rng(17);
  // Same decoded operand values feed both paths, so the FP32 results
  // differ only by summation order — but both are then re-encoded into
  // the C tile's storage precision, where a sub-ULP FP32 difference can
  // cross a rounding boundary.  The per-precision tolerance therefore
  // adds a couple of storage ULPs on top of the order term.
  for (Precision precision : {Precision::kFp32, Precision::kFp16,
                              Precision::kBf16, Precision::kFp8E4M3}) {
    for (std::size_t ts : {std::size_t{33}, std::size_t{64}}) {
      const Tile a = random_tile(ts, ts, precision, rng);
      const Tile b = random_tile(ts, ts, precision, rng);
      const Tile c0 = random_tile(ts, ts, precision, rng);

      Tile c_ref = c0;
      reference_tile_gemm(a, b, c_ref);

      Tile c_packed = c0;
      tile_gemm(a, b, c_packed);

      const Matrix<float> ref = c_ref.to_fp32();
      const Matrix<float> got = c_packed.to_fp32();
      const float order_tol =
          1e-5f * (1.0f + std::sqrt(static_cast<float>(ts + 1)));
      const float storage_tol =
          3.0f * static_cast<float>(unit_roundoff(precision));
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const float want = ref.data()[i];
        const float bound =
            (order_tol + storage_tol) * (1.0f + std::fabs(want));
        EXPECT_NEAR(got.data()[i], want, bound)
            << "tile_gemm " << to_string(precision) << " element " << i;
      }
    }
  }
}

TEST(GemmEngineTest, NarrowTileGemmAllocatesNoOperandScratch) {
  ScopedEngineConfig restore;
  Rng rng(29);
  const std::size_t ts = 64;
  constexpr int kOps = 8;
  TilePool& pool = TilePool::global();

  auto acquires = [&pool] {
    const TilePool::Stats s = pool.stats();
    return s.fresh_allocations + s.reuses;
  };

  for (Precision precision : {Precision::kFp16, Precision::kFp8E4M3}) {
    const Tile a = random_tile(ts, ts, precision, rng);
    const Tile b = random_tile(ts, ts, precision, rng);
    Tile c = random_tile(ts, ts, precision, rng);

    // After a warm-up (thread-local pack buffers sized, pool size classes
    // primed), each tile GEMM acquires exactly one pooled buffer — the
    // FP32 decode of the read-modify-write C tile.  A and B are packed
    // straight from storage (decode-on-pack): no full-tile FP32 operand
    // scratch is allocated or filled.
    tile_gemm(a, b, c);  // warm-up
    const std::uint64_t before_packed = acquires();
    for (int i = 0; i < kOps; ++i) tile_gemm(a, b, c);
    const std::uint64_t packed_per_op =
        (acquires() - before_packed) / kOps;
    EXPECT_EQ(packed_per_op, 1u)
        << to_string(precision)
        << ": packed tile GEMM should acquire only the C scratch";
  }
}

// ------------------------------------------------------- variant parity
//
// Every microkernel variant the host can run (generic always, plus
// avx2/avx512/neon as compiled+supported) must agree with the scalar
// reference oracle over random shapes/strides/precisions, and must be
// bitwise deterministic within itself across repeat runs.  Variants may differ from *each other* only by summation
// order, which the reference tolerance already covers.

TEST(GemmVariantParityTest, ReportsAtLeastGenericVariant) {
  const auto compiled = kernels::compiled_archs();
  const auto available = kernels::available_archs();
  ASSERT_FALSE(available.empty());
  EXPECT_NE(std::find(compiled.begin(), compiled.end(),
                      kernels::Arch::kGeneric),
            compiled.end());
  EXPECT_NE(std::find(available.begin(), available.end(),
                      kernels::Arch::kGeneric),
            available.end());
  // Every available variant is also compiled.
  for (const kernels::Arch arch : available) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), arch),
              compiled.end())
        << to_string(arch);
  }
}

TEST(GemmVariantParityTest, ArchOverrideSelectsTheVariant) {
  ScopedEngineConfig restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    EXPECT_EQ(kernels::selected_arch(), arch) << to_string(arch);
    EXPECT_GE(kernels::gemm_mr(), std::size_t{8});
    EXPECT_EQ(kernels::gemm_nr(), std::size_t{6});
  }
}

TEST(GemmVariantParityTest, EveryVariantMatchesReferenceOverRandomShapes) {
  ScopedEngineConfig restore;
  const Trans kTrans[] = {Trans::kNoTrans, Trans::kTrans};
  const float kScales[] = {0.0f, 1.0f, -1.0f, 0.5f};
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    Rng rng(20260807);  // same cases for every variant
    for (int iter = 0; iter < 16; ++iter) {
      GemmCase gc;
      gc.m = 1 + rng.uniform_index(97);
      gc.n = 1 + rng.uniform_index(97);
      gc.k = 1 + rng.uniform_index(97);
      gc.ta = kTrans[rng.uniform_index(2)];
      gc.tb = kTrans[rng.uniform_index(2)];
      gc.alpha = kScales[rng.uniform_index(4)];
      gc.beta = kScales[rng.uniform_index(4)];
      gc.pad_a = rng.uniform_index(5);
      gc.pad_b = rng.uniform_index(5);
      gc.pad_c = rng.uniform_index(5);
      SCOPED_TRACE(std::string("variant ") + to_string(arch));
      run_gemm_case(gc, rng);
    }
  }
}

TEST(GemmVariantParityTest, EveryVariantMatchesReferenceSyrk) {
  ScopedEngineConfig restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    Rng rng(20260808);
    for (int iter = 0; iter < 6; ++iter) {
      const std::size_t n = 1 + rng.uniform_index(70);
      const std::size_t k = 1 + rng.uniform_index(70);
      const Uplo uplo = iter % 2 == 0 ? Uplo::kLower : Uplo::kUpper;
      const std::size_t lda = n + rng.uniform_index(4);
      const std::size_t ldc = n + rng.uniform_index(4);
      const std::vector<float> a = random_buffer(lda * k, rng);
      const std::vector<float> c0 = random_buffer(ldc * n, rng);

      std::vector<float> c_ref = c0;
      reference::syrk(uplo, Trans::kNoTrans, n, k, -1.0f, a.data(), lda, 1.0f,
                      c_ref.data(), ldc);

      std::vector<float> c_packed = c0;
      syrk(uplo, Trans::kNoTrans, n, k, -1.0f, a.data(), lda, 1.0f,
           c_packed.data(), ldc);

      expect_close(c_packed, c_ref, k,
                   std::string("syrk variant ") + to_string(arch));
    }
  }
}

TEST(GemmVariantParityTest, EveryVariantMatchesReferencePerStoragePrecision) {
  ScopedEngineConfig restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    Rng rng(20260809);
    for (Precision precision :
         {Precision::kFp16, Precision::kBf16, Precision::kFp8E4M3}) {
      const std::size_t ts = 45;
      const Tile a = random_tile(ts, ts, precision, rng);
      const Tile b = random_tile(ts, ts, precision, rng);
      const Tile c0 = random_tile(ts, ts, precision, rng);

      Tile c_ref = c0;
      reference_tile_gemm(a, b, c_ref);

      Tile c_packed = c0;
      tile_gemm(a, b, c_packed);

      const Matrix<float> ref = c_ref.to_fp32();
      const Matrix<float> got = c_packed.to_fp32();
      const float tol =
          (1e-5f * (1.0f + std::sqrt(static_cast<float>(ts + 1))) +
           3.0f * static_cast<float>(unit_roundoff(precision)));
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(got.data()[i], ref.data()[i],
                    tol * (1.0f + std::fabs(ref.data()[i])))
            << "variant " << to_string(arch) << " "
            << to_string(precision) << " element " << i;
      }
    }
  }
}

TEST(GemmVariantParityTest, EveryVariantIsBitwiseDeterministic) {
  ScopedEngineConfig restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    Rng rng(20260810);
    const std::size_t m = 61, n = 43, k = 77;
    const std::vector<float> a = random_buffer(m * k, rng);
    const std::vector<float> b = random_buffer(k * n, rng);
    const std::vector<float> c0 = random_buffer(m * n, rng);
    const auto av = kernels::fp32_view(a.data(), m, Trans::kNoTrans);
    const auto bv = kernels::fp32_view(b.data(), k, Trans::kNoTrans);

    std::vector<float> c1 = c0, c2 = c0;
    kernels::gemm_view(m, n, k, -1.0f, av, bv, 0.5f, c1.data(), m);
    kernels::gemm_view(m, n, k, -1.0f, av, bv, 0.5f, c2.data(), m);
    EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)),
              0)
        << "variant " << to_string(arch) << " not run-to-run deterministic";
  }
}

TEST(GemmVariantParityTest, Int8AccumulatePathIsExactAndVariantInvariant) {
  // The FP32 store of the INT8 path: full-range operands (offset
  // compensation on every element) and every k remainder mod 4 (zero
  // padded k-groups).
  ScopedEngineConfig restore;
  Rng rng(20260811);
  const std::size_t m = 37, n = 29;
  for (const std::size_t k : {61u, 62u, 63u, 64u}) {
    std::vector<std::int8_t> a(m * k), b(k * n);
    for (auto& v : a) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) -
                                   128);
    }
    for (auto& v : b) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) -
                                   128);
    }
    const std::vector<float> c0 = random_buffer(m * n, rng);
    const kernels::OperandView av{a.data(), m, Trans::kNoTrans,
                                  Precision::kInt8, Precision::kFp32};
    const kernels::OperandView bv{b.data(), k, Trans::kNoTrans,
                                  Precision::kInt8, Precision::kFp32};

    // Exact oracle: integer dot products (|dot| <= 64 * 128^2 < 2^24, so
    // float(dot) is exact), scaled in FP32 exactly like the engine's
    // store (c += alpha * float(dot)).
    std::vector<float> want = c0;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        std::int64_t acc = 0;
        for (std::size_t l = 0; l < k; ++l) {
          acc += static_cast<std::int64_t>(a[i + l * m]) *
                 static_cast<std::int64_t>(b[l + j * k]);
        }
        want[i + j * m] += 0.5f * static_cast<float>(acc);
      }
    }

    std::vector<float> first;
    for (const kernels::Arch arch : kernels::available_archs()) {
      kernels::set_gemm_arch(arch);
      std::vector<float> c = c0;
      kernels::gemm_view(m, n, k, 0.5f, av, bv, 1.0f, c.data(), m);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], want[i]) << "variant " << to_string(arch) << " k "
                                 << k << " int8 element " << i;
      }
      if (first.empty()) {
        first = c;
      } else {
        EXPECT_EQ(
            std::memcmp(first.data(), c.data(), c.size() * sizeof(float)), 0)
            << "int8 path differs across variants (" << to_string(arch)
            << ")";
      }
    }
  }
}

TEST(GemmEngineTest, MixedTcGemmMatchesReferenceRounding) {
  ScopedEngineConfig restore;
  Rng rng(31);
  for (Precision precision :
       {Precision::kFp16, Precision::kBf16, Precision::kFp8E4M3}) {
    const std::size_t m = 45, n = 38, k = 51;
    const std::vector<float> a = random_buffer(m * k, rng);
    const std::vector<float> b = random_buffer(n * k, rng);  // used as B^T
    const std::vector<float> c0 = random_buffer(m * n, rng);

    // Oracle: round full operand copies to the tensor-core operand
    // precision, then run the scalar loops in FP32.
    std::vector<float> a_rounded = a, b_rounded = b;
    quantize_inplace(precision, a_rounded.data(), a_rounded.size());
    quantize_inplace(precision, b_rounded.data(), b_rounded.size());
    std::vector<float> c_ref = c0;
    reference::gemm(Trans::kNoTrans, Trans::kTrans, m, n, k, 1.0f,
                    a_rounded.data(), m, b_rounded.data(), n, 0.5f,
                    c_ref.data(), m);

    std::vector<float> c_packed = c0;
    gemm_tc(precision, Trans::kNoTrans, Trans::kTrans, m, n, k, 1.0f,
            a.data(), m, b.data(), n, 0.5f, c_packed.data(), m);

    expect_close(c_packed, c_ref, k, "gemm_tc " + to_string(precision));
  }
}

// ------------------------------------------------------------ exp_to_f32
//
// The engine's exact vector exponential, per variant the host can run:
// every output must equal float(std::exp(x)) bit for bit, whatever the
// variant, and the returned count must cover the lanes the fast path
// cannot decide.

/// Bitwise float(std::exp(x[i])) check of exp_to_f32 over `x` under every
/// available variant; returns each variant's fallback count.
std::vector<std::size_t> expect_exact_exp(const std::vector<double>& x,
                                          const std::string& what) {
  ScopedEngineConfig restore;
  std::vector<std::size_t> counts;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    std::vector<float> out(x.size(), -1.0f);
    counts.push_back(kernels::exp_to_f32(x.data(), x.size(), out.data()));
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float want = static_cast<float>(std::exp(x[i]));
      if (std::memcmp(&out[i], &want, sizeof(float)) != 0) {
        ADD_FAILURE() << what << " " << to_string(arch) << " x[" << i
                      << "] = " << x[i] << ": got " << out[i] << ", want "
                      << want;
        break;
      }
    }
  }
  return counts;
}

TEST(ExpToF32, DenseGridMatchesStdExpBitwise) {
  // [-100, 0] crosses -87.3, below which float(exp(x)) is an FP32
  // subnormal and then zero; the step is no multiple of ln 2.
  constexpr std::size_t kPoints = 1 << 20;
  std::vector<double> x(kPoints + 1);
  for (std::size_t i = 0; i <= kPoints; ++i) {
    x[i] = -100.0 * static_cast<double>(i) / static_cast<double>(kPoints);
  }
  for (const std::size_t fallbacks : expect_exact_exp(x, "grid")) {
    // Every x below -87 falls back, and at least that many lanes do.
    EXPECT_GE(fallbacks, kPoints * 13 / 100);
    EXPECT_LT(fallbacks, kPoints * 14 / 100);
  }
}

TEST(ExpToF32, SpecialValuesFallBackBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> x{0.0,    -0.0,  1e-300, 0.5,    88.0, 710.0,
                              nan,    -nan,  inf,    -inf,   -87.0,
                              -87.5,  -745.2, -1e-300, -1e-17,
                              std::nextafter(-87.0, -inf),
                              std::numeric_limits<double>::denorm_min()};
  // Out of [-87, -0]: +0, the five positives, both NaNs, both
  // infinities, -87.5, -745.2 and the double just below -87.
  for (const std::size_t fallbacks : expect_exact_exp(x, "special")) {
    EXPECT_EQ(fallbacks, 13u);
  }
}

TEST(ExpToF32, OddLengthsAndUnalignedStartsMatch) {
  Rng rng(97);
  std::vector<double> pool(1200);
  for (double& v : pool) v = -90.0 * rng.uniform();
  ScopedEngineConfig restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    for (const std::size_t start : {0, 1, 3, 7}) {
      for (const std::size_t n : {0, 1, 2, 3, 5, 17, 255, 256, 257, 513,
                                  1000}) {
        std::vector<float> out(n + 2, 7.0f);
        kernels::exp_to_f32(pool.data() + start, n, out.data() + 1);
        EXPECT_EQ(out[0], 7.0f);
        EXPECT_EQ(out[n + 1], 7.0f) << "wrote past lane " << n;
        for (std::size_t i = 0; i < n; ++i) {
          const float want = static_cast<float>(std::exp(pool[start + i]));
          ASSERT_EQ(std::memcmp(&out[i + 1], &want, sizeof(float)), 0)
              << to_string(arch) << " start " << start << " n " << n
              << " lane " << i;
        }
      }
    }
  }
}

TEST(ExpToF32, MidpointNeighboursFallBackAndMatch) {
  // For FP32 rounding midpoints m across the range, search the doubles
  // around log(m) for the x whose std::exp(x) lands closest to m, and
  // keep those within 4 double ulps: the inputs whose FP32 rounding the
  // fast path alone cannot decide.  Every one must fall back.
  Rng rng(1234);
  std::vector<double> x;
  std::size_t above = 0;
  for (int trial = 0; trial < 40000 && x.size() < 400; ++trial) {
    const double target = -87.0 * rng.uniform();
    const auto f = static_cast<float>(std::exp(target));
    const double mid =
        0.5 * (static_cast<double>(f) +
               static_cast<double>(std::nextafter(f, 2.0f)));
    double best = std::log(mid);
    double best_ulps = 1e300;
    double probe = best;
    for (int step = 0; step < 16; ++step) probe = std::nextafter(probe, -1e9);
    for (int step = 0; step < 32; ++step) {
      const double y = std::exp(probe);
      const double ulps =
          std::fabs(y - mid) / (std::nextafter(mid, 2.0) - mid);
      if (ulps < best_ulps) {
        best_ulps = ulps;
        best = probe;
      }
      probe = std::nextafter(probe, 0.0);
    }
    if (best_ulps <= 4.0 && best <= 0.0 && best >= -87.0) {
      x.push_back(best);
      if (std::exp(best) > mid) ++above;
    }
  }
  ASSERT_GE(x.size(), 100u);
  ASSERT_GT(above, 0u);  // both sides of the midpoint are covered
  ASSERT_LT(above, x.size());
  for (const std::size_t fallbacks : expect_exact_exp(x, "midpoint")) {
    EXPECT_EQ(fallbacks, x.size());
  }
}

TEST(ExpToF32, RandomArgumentsFallBackRarely) {
  Rng rng(4321);
  std::vector<double> x(1 << 18);
  for (double& v : x) v = -87.0 * rng.uniform();
  for (const std::size_t fallbacks : expect_exact_exp(x, "random")) {
    // About 1.2e-7 of in-range lanes sit in the band.
    EXPECT_LE(fallbacks, 8u);
  }
}

}  // namespace
}  // namespace kgwas
