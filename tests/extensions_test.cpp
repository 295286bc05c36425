// Tests for the extension modules: low-rank tile compression and patient
// ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "gwas/cohort_simulator.hpp"
#include "gwas/ordering.hpp"
#include "linalg/low_rank.hpp"
#include "mpblas/blas.hpp"

namespace kgwas {
namespace {

// --------------------------------------------------------------- low rank

TEST(LowRank, JacobiSvdReconstructsExactly) {
  Rng rng(3);
  Matrix<float> a(12, 8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.normal());
  }
  const Svd svd = jacobi_svd(a);
  // Reconstruct A = U diag(s) V^T.
  Matrix<float> us = svd.u;
  for (std::size_t j = 0; j < svd.sigma.size(); ++j) {
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= svd.sigma[j];
  }
  const Matrix<float> recon = matmul(us, svd.v, Trans::kNoTrans, Trans::kTrans);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(recon.data()[i], a.data()[i], 1e-4);
  }
  // Singular values descending and non-negative.
  for (std::size_t j = 1; j < svd.sigma.size(); ++j) {
    EXPECT_LE(svd.sigma[j], svd.sigma[j - 1] + 1e-6);
    EXPECT_GE(svd.sigma[j], 0.0f);
  }
}

TEST(LowRank, SingularValuesMatchKnownMatrix) {
  // diag(5, 3) embedded in a 3x2: singular values exactly 5 and 3.
  Matrix<float> a(3, 2, 0.0f);
  a(0, 0) = 5.0f;
  a(1, 1) = 3.0f;
  const Svd svd = jacobi_svd(a);
  ASSERT_EQ(svd.sigma.size(), 2u);
  EXPECT_NEAR(svd.sigma[0], 5.0f, 1e-5);
  EXPECT_NEAR(svd.sigma[1], 3.0f, 1e-5);
}

TEST(LowRank, ExactlyLowRankMatrixCompressesToItsRank) {
  // A = x y^T + w z^T has rank 2.
  Rng rng(4);
  const std::size_t m = 20, n = 16;
  Matrix<float> a(m, n, 0.0f);
  std::vector<float> x(m), y(n), w(m), z(n);
  for (auto* v : {&x, &w}) {
    for (auto& e : *v) e = static_cast<float>(rng.normal());
  }
  for (auto* v : {&y, &z}) {
    for (auto& e : *v) e = static_cast<float>(rng.normal());
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      a(i, j) = 3.0f * x[i] * y[j] + 2.0f * w[i] * z[j];
    }
  }
  const LowRankFactor factor = compress_block(a, 1e-3);
  EXPECT_EQ(factor.rank(), 2u);
  const Matrix<float> recon = reconstruct(factor);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(recon.data()[i], a.data()[i], 1e-3);
  }
}

TEST(LowRank, SurveyOnSmoothKernelShowsCompression) {
  // A Gaussian kernel over a smooth 1D geometry: off-diagonal tiles are
  // numerically low-rank (the paper's TLR motivation).
  const std::size_t n = 96, ts = 24;
  Matrix<float> k(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = static_cast<float>(std::exp(-d * d / 900.0));
    }
  }
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(k);
  const CompressionSurvey survey = survey_low_rank(tiles, 1e-3);
  EXPECT_LT(survey.mean_rank, static_cast<double>(ts) / 2);
  EXPECT_LT(survey.compressed_bytes, survey.dense_bytes);
  EXPECT_LT(survey.max_error, 0.05);
}

// ---------------------------------------------------------------- ordering

TEST(Ordering, KmeansRecoversPlantedClusters) {
  // Strongly separated populations: k-means labels should align with the
  // true populations (up to relabeling).
  CohortConfig cc;
  cc.n_patients = 200;
  cc.n_snps = 150;
  cc.n_populations = 3;
  cc.fst = 0.35;
  cc.population_segment = 10;  // scrambled order
  cc.seed = 31;
  const Cohort cohort = simulate_cohort(cc);
  const auto labels = kmeans_patients(cohort.genotypes, 3, 25, 7);

  // Measure agreement: for each true population, its patients' majority
  // k-means label should cover most of the group.
  std::size_t agree = 0;
  for (std::size_t pop = 0; pop < 3; ++pop) {
    std::vector<std::size_t> count(3, 0);
    std::size_t members = 0;
    for (std::size_t i = 0; i < 200; ++i) {
      if (cohort.population[i] == pop) {
        ++count[labels[i]];
        ++members;
      }
    }
    agree += *std::max_element(count.begin(), count.end());
  }
  EXPECT_GT(static_cast<double>(agree) / 200.0, 0.85);
}

TEST(Ordering, ClusterOrderIsPermutationSortedByLabel) {
  const std::vector<std::size_t> labels{2, 0, 1, 0, 2, 1};
  const auto order = cluster_order(labels);
  ASSERT_EQ(order.size(), 6u);
  // Sorted by label, stable within: 1,3 (label 0), 2,5 (1), 0,4 (2).
  const std::vector<std::size_t> expected{1, 3, 2, 5, 0, 4};
  EXPECT_EQ(order, expected);
  // Is a permutation.
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Ordering, PermuteRoundTrip) {
  const GenotypeMatrix dense = simulate_random_genotypes(20, 8, 3);
  std::vector<std::size_t> order(20);
  std::iota(order.rbegin(), order.rend(), 0);  // reversal
  const GenotypeMatrix permuted = permute_patients(dense, order);
  for (std::size_t p = 0; p < 20; ++p) {
    for (std::size_t s = 0; s < 8; ++s) {
      EXPECT_EQ(permuted(p, s), dense(19 - p, s));
    }
  }
}

}  // namespace
}  // namespace kgwas
