// The four pipeline workloads and the inputs they are generated from.
//
// Every workload runs Build -> Associate -> Predict on a UK-BioBank-like
// cohort (six populations, LD blocks, five binary epistatic diseases),
// split 80/20, with a median-heuristic Gaussian bandwidth and an adaptive
// FP32/FP16 tile-precision map.  The workloads differ in which layer does
// most of the work, so an optimization of one layer is exercised by one
// workload and bypassed by another.  Sizes keep one repetition under a
// second on a 4-core host, so a 20-second run holds about 25 repetitions.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "gwas/cohort_simulator.hpp"
#include "gwas/dataset.hpp"
#include "gwas/phenotype.hpp"
#include "krr/kernels.hpp"
#include "krr/model.hpp"

namespace pipebench {

struct Workload {
  std::string_view name;
  std::string_view why;
  std::size_t patients = 0;  ///< before the 80/20 split
  std::size_t snps = 0;
  std::size_t tile = 0;
  double alpha = 0.0;        ///< ridge added to the kernel diagonal
  double tlr_tol = 0.0;      ///< 0 = dense tiles
  int ranks = 1;             ///< > 1 runs the dist/ layer in-process
  std::size_t workers = 4;   ///< runtime workers per rank
  /// Output checks: a repetition whose FP64 backward error exceeds
  /// `max_backward_err` or whose mean held-out Pearson correlation is below
  /// `min_pearson` counts as failed.  Both sit well outside the values
  /// observed across seeds, so they catch broken numerics, not noise.
  double max_backward_err = 0.0;
  double min_pearson = 0.0;

  bool distributed() const noexcept { return ranks > 1; }
};

inline constexpr std::array<Workload, 4> kWorkloads{{
    {"build_wide",
     "many SNPs per patient: the INT8 Gram of Build and its cross-kernel "
     "do most of the work, the Cholesky little",
     1600, 768, 256, 0.5, 0.0, 1, 4, 1e-4, 0.0},
    {"solve_tall",
     "many patients, few SNPs: the tiled Cholesky, scheduler and batch "
     "coalescer do most of the work, Build little",
     3840, 64, 256, 0.5, 0.0, 1, 4, 1e-4, 0.4},
    {"dist4_solve",
     "solve_tall inputs on the in-process 4-rank world: the same Cholesky "
     "through dist/ (owner-computes, tile transport, recv waits)",
     3840, 64, 256, 0.5, 0.0, 4, 1, 1e-4, 0.4},
    {"tlr_solve",
     "tile low-rank compression at tol 1e-2: Associate runs the SVD "
     "compression and the factored TLR kernels instead of dense tiles",
     1280, 64, 128, 2.0, 1e-2, 1, 4, 1e-2, 0.15},
}};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// UK-BioBank-like cohort: population-structured genotypes with four
/// confounder columns and the five-disease epistatic phenotype panel, all
/// drawn from `seed`.  The causal set is kept inside (and dense within) the
/// SNP panel, as the accuracy benches do.
inline kgwas::GwasDataset ukb_like_cohort(std::size_t patients,
                                          std::size_t snps,
                                          std::uint64_t seed) {
  kgwas::CohortConfig cc;
  cc.n_patients = patients;
  cc.n_snps = snps;
  cc.n_populations = 6;
  cc.fst = 0.12;
  cc.ld_block_size = 16;
  cc.ld_rho = 0.6;
  cc.seed = seed;
  kgwas::Cohort cohort = kgwas::simulate_cohort(cc);
  auto panel_configs = kgwas::ukb_disease_panel(seed + 7);
  for (auto& pc : panel_configs) {
    pc.n_causal = std::min(pc.n_causal, snps / 2);
    pc.n_pairs = std::min(pc.n_pairs, 2 * pc.n_causal);
  }
  kgwas::PhenotypePanel panel = kgwas::simulate_panel(cohort, panel_configs);
  return kgwas::make_dataset(std::move(cohort), std::move(panel));
}

/// Pipeline configuration of `w` for a training cohort: Gaussian kernel
/// with the median-heuristic gamma, adaptive FP32/FP16 map, and TLR
/// compression when the workload asks for it.
inline kgwas::KrrConfig krr_config(const Workload& w,
                                   const kgwas::GwasDataset& train) {
  kgwas::KrrConfig config;
  config.build.tile_size = w.tile;
  const auto& g = train.genotypes.matrix();
  config.build.gamma = kgwas::suggest_gamma(
      std::span<const std::int8_t>(g.data(), g.size()), train.patients(),
      train.snps());
  config.associate.alpha = w.alpha;
  config.associate.mode = kgwas::PrecisionMode::kAdaptive;
  config.associate.adaptive.available = {kgwas::Precision::kFp16};
  config.associate.tlr = kgwas::TlrPolicy{};
  config.associate.tlr.tol = w.tlr_tol;
  return config;
}

}  // namespace pipebench
