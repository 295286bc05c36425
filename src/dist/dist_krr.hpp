// Distributed KRR pipeline: Build -> Associate -> Predict over a
// multi-rank world — the paper's Algorithm 1, owner-computes.  The train
// kernel is sharded 2D block-cyclically and its factorization ships tiles
// at storage precision; the test x train cross-kernel is sharded by tile
// row, so each rank builds exactly the row blocks it sums and Predict
// ships only the finished prediction row blocks.
//
// Inputs (genotypes, confounders, phenotypes) are replicated on every
// rank — the single-box multi-rank experiment model, matching how the
// scaling benches drive this layer.  Outputs (weights, predictions) are
// likewise replicated on return.  Build and Predict run the shared-memory
// loops (generate_kernel_tiles, generate_cross_tiles, submit_predict_rows)
// on the owned tiles, so every stage is bitwise identical to the
// shared-memory KrrModel pipeline for any rank count: Build tiles depend
// only on their global coordinates, the factorization replays the exact
// per-tile update order, and each prediction row block is one chain on
// one rank in the serial column order.
#pragma once

#include <optional>

#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "gwas/dataset.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "krr/model.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/run_report.hpp"

namespace kgwas::dist {

/// Builds the symmetric train x train kernel matrix, each rank generating
/// only the tiles it owns.  No tile traffic (inputs are replicated);
/// collective, ends with a barrier.
DistSymmetricTileMatrix dist_build_kernel_matrix(
    Runtime& runtime, Communicator& comm, const ProcessGrid& grid,
    const GenotypeMatrix& genotypes, const Matrix<float>& confounders,
    const BuildConfig& config);

/// Associate phase over a distributed kernel: the shared-memory
/// preparation (prepare_associate) on the owned tiles — regularize,
/// choose tile precisions from allreduced per-tile norms, TLR-compress
/// when config.tlr.tol > 0, apply the map — then factorize
/// (dist_tiled_potrf) and solve for the weights (dist_tiled_potrs).
/// `phenotypes` must be replicated; the returned weights, map, TLR stats
/// and global factor_bytes are replicated and bitwise those of
/// associate() on the assembled matrix.  Collective.
///
/// With a non-null `ft` the factorization is checkpointed every
/// configured_checkpoint_interval() panel steps and recovers from rank
/// loss; `*ft` receives the fault-tolerance outcome.  After a loss the
/// solve runs over the survivor communicator and re-gridded factor, and
/// the caller must run subsequent collective phases over
/// `ft->active_comm(comm)` (and a grid of `ft->final_ranks.size()`
/// ranks).  Only surviving ranks return.
AssociateResult dist_associate(Runtime& runtime, Communicator& comm,
                               DistSymmetricTileMatrix& k,
                               const Matrix<float>& phenotypes,
                               const AssociateConfig& config,
                               DistFtResult* ft = nullptr);

/// True when run_dist_krr should run Associate checkpointed (the `ft`
/// argument of dist_associate): a fault-injection plan is live on `comm`, or
/// KGWAS_FT is a non-zero integer.  A malformed KGWAS_FT warns and counts
/// as 0.
bool fault_tolerance_requested(const Communicator& comm);

/// Builds the rectangular test x train cross-kernel, each rank generating
/// the tile rows it owns (DistTileMatrix::row_owner).  No tile traffic;
/// collective, ends with a barrier.  Only grid.ranks() is read: the
/// cross-kernel is sharded by tile row, not over the grid.
DistTileMatrix dist_build_cross_kernel(
    Runtime& runtime, Communicator& comm, const ProcessGrid& grid,
    const GenotypeMatrix& test_genotypes,
    const Matrix<float>& test_confounders,
    const GenotypeMatrix& train_genotypes,
    const Matrix<float>& train_confounders, const BuildConfig& config);

/// Predict phase: each rank sums the prediction row blocks of the tile
/// rows it owns, in the shared-memory chain's column order (bitwise
/// identical), then the row blocks are allgathered.  No cross-kernel tile
/// moves.  Returns the fully-replicated predictions.  Collective, ends
/// with a barrier.
Matrix<float> dist_predict(Runtime& runtime, Communicator& comm,
                           DistTileMatrix& cross_kernel,
                           const Matrix<float>& weights);

/// Results of a whole-pipeline run (run_dist_krr).
struct DistKrrResult {
  Matrix<float> weights;      ///< replicated solution W
  Matrix<float> predictions;  ///< test predictions
  PrecisionMap map;           ///< precision decisions actually factored
  std::size_t factor_bytes = 0;  ///< global factor storage after conversion
  std::size_t fp32_bytes = 0;    ///< storage had everything stayed FP32
  WireVolume wire;            ///< total world wire volume of the run
  /// Breakdown-recovery diagnostics of the factorization (identical on
  /// every rank; reported from rank 0).
  FactorizationReport report;
  /// Rank 0's fault-tolerance outcome, engaged only when the FT path ran
  /// (see fault_tolerance_requested); becomes the report's "fault" block.
  std::optional<telemetry::FaultSummary> fault;
};

/// Convenience harness for tests and benches: spins up an in-process
/// world of `ranks` ranks (each with its own Runtime sized by
/// KGWAS_DIST_WORKERS), runs the full distributed pipeline on replicated
/// copies of `train`/`test`, and returns rank 0's results plus the wire
/// ledger.  `ranks` <= 0 selects KGWAS_RANKS.
DistKrrResult run_dist_krr(int ranks, const GwasDataset& train,
                           const GwasDataset& test, const KrrConfig& config);

}  // namespace kgwas::dist
