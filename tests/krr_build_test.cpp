// Tests for the Build phase: the INT8 matrix identities must reproduce
// the scalar kernel definitions bit for bit — every kernel value equals
// float(gaussian_kernel(...)) / float(ibs_kernel(...)) exactly — under
// every microkernel variant the host can execute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "gwas/cohort_simulator.hpp"
#include "krr/build.hpp"
#include "krr/kernels.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"
#include "runtime/runtime.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

std::span<const std::int8_t> patient_row(const GenotypeMatrix& g,
                                         std::vector<std::int8_t>& scratch,
                                         std::size_t p) {
  scratch.resize(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) scratch[s] = g(p, s);
  return scratch;
}

/// Runs `body(arch)` with each runnable variant selected, then restores
/// the default selection.
template <typename Body>
void for_each_variant(const Body& body) {
  struct Restore {
    ~Restore() { kernels::set_gemm_arch(std::nullopt); }
  } restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    body(arch);
  }
}

/// The scalar definition of kernel entry (i, j), rounded to FP32 storage.
float scalar_kernel(const BuildConfig& config, const GenotypeMatrix& rows,
                    std::size_t i, const GenotypeMatrix& cols,
                    std::size_t j) {
  std::vector<std::int8_t> si, sj;
  const auto pi = patient_row(rows, si, i);
  const auto pj = patient_row(cols, sj, j);
  if (config.kernel == KernelType::kGaussian) {
    return static_cast<float>(gaussian_kernel(
        config.gamma, static_cast<double>(squared_distance(pi, pj))));
  }
  return static_cast<float>(ibs_kernel(pi, pj));
}

class BuildKernelParam : public ::testing::TestWithParam<KernelType> {};

TEST_P(BuildKernelParam, MatchesScalarReference) {
  const KernelType kernel = GetParam();
  CohortConfig cc;
  cc.n_patients = 90;
  cc.n_snps = 150;
  cc.seed = 31;
  const Cohort cohort = simulate_cohort(cc);

  BuildConfig config;
  config.kernel = kernel;
  config.gamma = 0.01;
  // Edge tiles (90 = 2*32 + 26) and a k remainder (150 = 4*37 + 2).
  config.tile_size = 32;
  const Matrix<float> empty_conf(90, 0);
  for_each_variant([&](kernels::Arch arch) {
    Runtime rt(4);
    const Matrix<float> dense =
        build_kernel_matrix(rt, cohort.genotypes, empty_conf, config)
            .to_dense();
    for (std::size_t j = 0; j < 90; ++j) {
      for (std::size_t i = 0; i < 90; ++i) {
        ASSERT_EQ(dense(i, j), scalar_kernel(config, cohort.genotypes, i,
                                             cohort.genotypes, j))
            << to_string(kernel) << " " << to_string(arch) << " (" << i
            << "," << j << ")";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(BothKernels, BuildKernelParam,
                         ::testing::Values(KernelType::kGaussian,
                                           KernelType::kIbs),
                         [](const auto& info) { return to_string(info.param); });

TEST(Build, GaussianPropertiesHold) {
  CohortConfig cc;
  cc.n_patients = 64;
  cc.n_snps = 100;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.gamma = 0.02;
  config.tile_size = 16;
  Runtime rt(2);
  const SymmetricTileMatrix k = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(64, 0), config);
  const Matrix<float> dense = k.to_dense();
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(dense(i, i), 1.0f);  // zero self-distance
    for (std::size_t j = 0; j < 64; ++j) {
      ASSERT_GT(dense(i, j), 0.0f);
      ASSERT_LE(dense(i, j), 1.0f);
      ASSERT_EQ(dense(i, j), dense(j, i));
    }
  }
}

TEST(Build, GaussianKernelIsPositiveDefiniteAfterRegularization) {
  CohortConfig cc;
  cc.n_patients = 80;
  cc.n_snps = 120;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.gamma = 0.02;
  config.tile_size = 32;
  Runtime rt(2);
  const SymmetricTileMatrix k = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(80, 0), config);
  Matrix<float> dense = k.to_dense();
  for (std::size_t i = 0; i < 80; ++i) dense(i, i) += 0.01f;
  EXPECT_EQ(potrf(Uplo::kLower, 80, dense.data(), dense.ld()), 0);
}

TEST(Build, ConfoundersEnterGaussianExponent) {
  CohortConfig cc;
  cc.n_patients = 40;
  cc.n_snps = 60;
  cc.n_confounders = 3;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.gamma = 0.05;
  config.tile_size = 16;
  Runtime rt(2);
  const SymmetricTileMatrix k =
      build_kernel_matrix(rt, cohort.genotypes, cohort.confounders, config);
  const Matrix<float> dense = k.to_dense();

  std::vector<std::int8_t> si, sj;
  for (std::size_t i = 0; i < 40; i += 3) {
    for (std::size_t j = 0; j < i; j += 4) {
      const auto pi = patient_row(cohort.genotypes, si, i);
      const auto pj = patient_row(cohort.genotypes, sj, j);
      double d = static_cast<double>(squared_distance(pi, pj));
      for (std::size_t c = 0; c < 3; ++c) {
        const double diff = static_cast<double>(cohort.confounders(i, c)) -
                            cohort.confounders(j, c);
        d += diff * diff;
      }
      ASSERT_NEAR(dense(i, j), gaussian_kernel(config.gamma, d),
                  2e-5 * (1.0 + dense(i, j)));
    }
  }
}

/// The Gaussian epilogue as KernelTileGenerator::compute ran it with
/// scalar std::exp, kept here as the oracle of the confounder path: per
/// tile of `config.tile_size` (edge tiles included), the exact dosage
/// Gram, the same staged FP32 confounder GEMM (-2 C_r C_c^T on the
/// engine) and per entry float(std::exp(-gamma d)) in FP64.  Fills the
/// tiles on or below the diagonal when `lower`, else every tile.
Matrix<float> scalar_epilogue(const BuildConfig& config,
                              const GenotypeMatrix& rows,
                              const Matrix<float>& conf_rows,
                              const GenotypeMatrix& cols,
                              const Matrix<float>& conf_cols, bool lower) {
  const auto conf_norms = [](const Matrix<float>& conf) {
    std::vector<float> norms(conf.rows(), 0.0f);
    for (std::size_t c = 0; c < conf.cols(); ++c) {
      for (std::size_t p = 0; p < conf.rows(); ++p) {
        norms[p] += conf(p, c) * conf(p, c);
      }
    }
    return norms;
  };
  const std::vector<std::int32_t> snp_r = rows.squared_row_norms();
  const std::vector<std::int32_t> snp_c = cols.squared_row_norms();
  const std::vector<float> conf_r = conf_norms(conf_rows);
  const std::vector<float> conf_c = conf_norms(conf_cols);
  const std::size_t ts = config.tile_size, nc = conf_rows.cols();
  Matrix<float> k(rows.patients(), cols.patients(), 0.0f);
  for (std::size_t c0 = 0; c0 < cols.patients(); c0 += ts) {
    for (std::size_t r0 = lower ? c0 : 0; r0 < rows.patients(); r0 += ts) {
      const std::size_t mb = std::min(ts, rows.patients() - r0);
      const std::size_t nb = std::min(ts, cols.patients() - c0);
      std::vector<float> staged(mb * nb);
      gemm(Trans::kNoTrans, Trans::kTrans, mb, nb, nc, -2.0f,
           &conf_rows(r0, 0), conf_rows.ld(), &conf_cols(c0, 0),
           conf_cols.ld(), 0.0f, staged.data(), mb);
      for (std::size_t j = 0; j < nb; ++j) {
        for (std::size_t i = 0; i < mb; ++i) {
          std::int64_t dot = 0;
          for (std::size_t s = 0; s < rows.snps(); ++s) {
            dot += rows(r0 + i, s) * cols(c0 + j, s);
          }
          double d = static_cast<double>(snp_r[r0 + i]) +
                     static_cast<double>(snp_c[c0 + j]) -
                     2.0 * static_cast<double>(dot);
          d += static_cast<double>(conf_r[r0 + i]) +
               static_cast<double>(conf_c[c0 + j]) +
               static_cast<double>(staged[i + j * mb]);
          if (d < 0.0) d = 0.0;
          k(r0 + i, c0 + j) = static_cast<float>(std::exp(-config.gamma * d));
        }
      }
    }
  }
  return k;
}

Matrix<float> confounder_rows(const Matrix<float>& conf, std::size_t first,
                              std::size_t count) {
  Matrix<float> out(count, conf.cols());
  for (std::size_t c = 0; c < conf.cols(); ++c) {
    for (std::size_t p = 0; p < count; ++p) out(p, c) = conf(first + p, c);
  }
  return out;
}

TEST(Build, ConfounderEpilogueMatchesScalarBitwise) {
  // The benchmark workloads' shape of input: four confounder columns in
  // the Gaussian exponent.  Edge tiles (90 = 2*32 + 26, a 30 x 60 cross
  // kernel) and a k remainder (150 SNPs); the diagonal's FP32 confounder
  // part rounds around 0, so the d < 0 clamp runs too.
  CohortConfig cc;
  cc.n_patients = 90;
  cc.n_snps = 150;
  cc.n_confounders = 4;
  cc.seed = 41;
  const Cohort cohort = simulate_cohort(cc);
  std::vector<std::size_t> train_rows(60), test_rows(30);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::iota(test_rows.begin(), test_rows.end(), 60);
  const GenotypeMatrix train = cohort.genotypes.subset_rows(train_rows);
  const GenotypeMatrix test = cohort.genotypes.subset_rows(test_rows);
  const Matrix<float> train_conf = confounder_rows(cohort.confounders, 0, 60);
  const Matrix<float> test_conf = confounder_rows(cohort.confounders, 60, 30);

  BuildConfig config;
  config.gamma = 0.01;
  config.tile_size = 32;
  for_each_variant([&](kernels::Arch arch) {
    Runtime rt(2);
    const Matrix<float> k =
        build_kernel_matrix(rt, cohort.genotypes, cohort.confounders, config)
            .to_dense();
    const Matrix<float> k_ref =
        scalar_epilogue(config, cohort.genotypes, cohort.confounders,
                        cohort.genotypes, cohort.confounders, true);
    for (std::size_t j = 0; j < 90; ++j) {
      for (std::size_t i = j / 32 * 32; i < 90; ++i) {
        ASSERT_EQ(k(i, j), k_ref(i, j))
            << to_string(arch) << " K(" << i << "," << j << ")";
      }
    }
    const Matrix<float> kx =
        build_cross_kernel(rt, test, test_conf, train, train_conf, config)
            .to_dense();
    const Matrix<float> kx_ref =
        scalar_epilogue(config, test, test_conf, train, train_conf, false);
    for (std::size_t j = 0; j < 60; ++j) {
      for (std::size_t i = 0; i < 30; ++i) {
        ASSERT_EQ(kx(i, j), kx_ref(i, j))
            << to_string(arch) << " Kx(" << i << "," << j << ")";
      }
    }
  });
}

TEST(Build, CrossKernelMatchesScalar) {
  CohortConfig cc;
  cc.n_patients = 90;
  cc.n_snps = 150;
  cc.seed = 37;
  const Cohort cohort = simulate_cohort(cc);
  // Split rows 0..59 train, 60..89 test: edge tiles on both sides.
  std::vector<std::size_t> train_rows(60), test_rows(30);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::iota(test_rows.begin(), test_rows.end(), 60);
  const GenotypeMatrix train = cohort.genotypes.subset_rows(train_rows);
  const GenotypeMatrix test = cohort.genotypes.subset_rows(test_rows);

  for (const KernelType kernel : {KernelType::kGaussian, KernelType::kIbs}) {
    BuildConfig config;
    config.kernel = kernel;
    config.gamma = 0.03;
    config.tile_size = 32;
    for_each_variant([&](kernels::Arch arch) {
      Runtime rt(2);
      const TileMatrix kx = build_cross_kernel(
          rt, test, Matrix<float>(30, 0), train, Matrix<float>(60, 0), config);
      ASSERT_EQ(kx.rows(), 30u);
      ASSERT_EQ(kx.cols(), 60u);
      const Matrix<float> dense = kx.to_dense();
      for (std::size_t j = 0; j < 60; ++j) {
        for (std::size_t i = 0; i < 30; ++i) {
          ASSERT_EQ(dense(i, j), scalar_kernel(config, test, i, train, j))
              << to_string(kernel) << " " << to_string(arch) << " (" << i
              << "," << j << ")";
        }
      }
    });
  }
}

TEST(Build, RejectsOutOfRangeDosage) {
  // The IBS identity and the INT32 overflow guard assume dosages in
  // {0, 1, 2}; anything else must fail loudly, naming the entry, on the
  // row side or the column side, for both kernels and both Build entry
  // points.
  const GenotypeMatrix good = simulate_random_genotypes(20, 30, 5);
  const Matrix<float> conf(20, 0);
  for (const std::int8_t bad : {std::int8_t{-1}, std::int8_t{3}}) {
    GenotypeMatrix broken = good;
    broken(5, 7) = bad;
    for (const KernelType kernel : {KernelType::kGaussian, KernelType::kIbs}) {
      BuildConfig config;
      config.kernel = kernel;
      config.tile_size = 8;
      Runtime rt(2);
      const auto expect_rejected = [&](const auto& build) {
        try {
          build();
          ADD_FAILURE() << "dosage " << int{bad} << " accepted ("
                        << to_string(kernel) << ")";
        } catch (const InvalidArgument& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("patient 5"), std::string::npos) << what;
          EXPECT_NE(what.find("SNP 7"), std::string::npos) << what;
        }
      };
      expect_rejected(
          [&] { build_kernel_matrix(rt, broken, conf, config); });
      expect_rejected(
          [&] { build_cross_kernel(rt, broken, conf, good, conf, config); });
      expect_rejected(
          [&] { build_cross_kernel(rt, good, conf, broken, conf, config); });
    }
  }
}

TEST(Build, RejectsConfounderRowMismatch) {
  // Each side's confounders have one row per patient of that side, or
  // none; any other count would read past the matrix.  Checked once, in
  // KernelTileGenerator, for every Build entry point and both sides.
  const GenotypeMatrix train = simulate_random_genotypes(20, 30, 5);
  const GenotypeMatrix test = simulate_random_genotypes(12, 30, 6);
  const Matrix<float> train_conf(20, 2, 0.5f), test_conf(12, 2, 0.5f);
  const Matrix<float> short_conf(10, 2, 0.5f);
  BuildConfig config;
  config.tile_size = 8;
  Runtime rt(2);
  EXPECT_THROW(build_kernel_matrix(rt, train, short_conf, config),
               InvalidArgument);
  EXPECT_THROW(
      build_cross_kernel(rt, test, short_conf, train, train_conf, config),
      InvalidArgument);
  EXPECT_THROW(
      build_cross_kernel(rt, test, test_conf, train, short_conf, config),
      InvalidArgument);
  EXPECT_NO_THROW(
      build_cross_kernel(rt, test, test_conf, train, train_conf, config));
}

TEST(Build, IbsSelfSimilarityIsOne) {
  CohortConfig cc;
  cc.n_patients = 30;
  cc.n_snps = 50;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig config;
  config.kernel = KernelType::kIbs;
  config.tile_size = 8;
  Runtime rt(2);
  const SymmetricTileMatrix k = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(30, 0), config);
  const Matrix<float> dense = k.to_dense();
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_FLOAT_EQ(dense(i, i), 1.0f);
    for (std::size_t j = 0; j < 30; ++j) {
      ASSERT_GE(dense(i, j), 0.0f);
      ASSERT_LE(dense(i, j), 1.0f);
    }
  }
}

TEST(Kernels, ScalarDefinitions) {
  const std::vector<std::int8_t> a{0, 1, 2, 2};
  const std::vector<std::int8_t> b{2, 1, 2, 0};
  EXPECT_EQ(squared_distance(a, b), 4 + 0 + 0 + 4);
  // IBS shared alleles: |0-2|=2 -> 0 shared; |1-1| -> 2; |2-2| -> 2;
  // |2-0| -> 0; total 4 of 8.
  EXPECT_DOUBLE_EQ(ibs_kernel(a, b), 0.5);
  EXPECT_DOUBLE_EQ(gaussian_kernel(0.5, 0.0), 1.0);
  EXPECT_NEAR(gaussian_kernel(0.1, 8.0), std::exp(-0.8), 1e-12);
}

TEST(Kernels, SuggestGammaScalesInversely) {
  const GenotypeMatrix g = simulate_random_genotypes(100, 200, 4);
  const auto& m = g.matrix();
  const double gamma = suggest_gamma(
      std::span<const std::int8_t>(m.data(), m.size()), 100, 200);
  // Median squared distance for random dosage data is ~ 0.9 * NS, so gamma
  // should be about 1 / that.
  EXPECT_GT(gamma, 1.0 / (4.0 * 200.0));
  EXPECT_LT(gamma, 1.0 / (0.1 * 200.0));
}

TEST(Build, OpCountFormula) {
  EXPECT_DOUBLE_EQ(build_op_count(100, 50, 4),
                   100.0 * 100.0 * 50.0 + 100.0 * 100.0 * 4.0 + 100.0 * 100.0);
}

}  // namespace
}  // namespace kgwas
