#include "dist/dist_krr.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/status.hpp"
#include "dist/progress.hpp"
#include "dist/tile_transport.hpp"
#include "krr/predict.hpp"
#include "telemetry/run_report.hpp"

namespace kgwas::dist {

DistSymmetricTileMatrix dist_build_kernel_matrix(
    Runtime& runtime, Communicator& comm, const ProcessGrid& grid,
    const GenotypeMatrix& genotypes, const Matrix<float>& confounders,
    const BuildConfig& config) {
  KGWAS_CHECK_ARG(genotypes.patients() > 0, "empty cohort");
  KGWAS_CHECK_ARG(grid.ranks() == comm.size(),
                  "process grid does not match the communicator world");
  const KernelTileGenerator generator(genotypes, confounders, genotypes,
                                      confounders, config);
  DistSymmetricTileMatrix k(genotypes.patients(), config.tile_size, grid,
                            comm.rank());
  generate_kernel_tiles(
      runtime, generator, k,
      [&k](std::size_t ti, std::size_t tj) { return k.is_local(ti, tj); });
  comm.barrier();
  return k;
}

AssociateResult dist_associate(Runtime& runtime, Communicator& comm,
                               DistSymmetricTileMatrix& k,
                               const Matrix<float>& phenotypes,
                               const AssociateConfig& config,
                               DistFtResult* ft) {
  KGWAS_CHECK_ARG(phenotypes.rows() == k.n(),
                  "phenotype row count must equal kernel dimension");
  KGWAS_CHECK_ARG(config.alpha > 0.0, "alpha must be positive");

  AssociateResult result;
  DistPotrfOptions options;
  options.precision_map = &result.map;
  options.on_breakdown = config.on_breakdown;
  options.max_escalations = config.max_escalations;
  options.report = &result.report;
  options.checkpoint_interval = ft ? configured_checkpoint_interval() : 0;
  DistFtResult outcome;
  {
    // The shared-memory preparation on the owned tiles; per-tile norms
    // and TLR tallies are allreduced, so every rank plans the map — and
    // reports the stats and footprint — the shared-memory associate
    // computes on the full matrix.  Under escalation the regularized
    // pre-demotion owned tiles are the rollback source (same recovery
    // semantics, and bitwise the same factor, as shared memory).
    std::optional<DistSymmetricTileMatrix> source;
    prepare_associate(
        runtime, k,
        [&k](std::size_t ti, std::size_t tj) { return k.is_local(ti, tj); },
        config,
        [&comm](std::vector<double>& v) {
          comm.allreduce_sum(v.data(), v.size());
        },
        [&] {
          if (config.on_breakdown == BreakdownAction::kEscalate) {
            options.source = &source.emplace(k);
          }
        },
        result);
    outcome = dist_tiled_potrf(runtime, comm, k, options);
  }
  // On rank loss the factor lives in the re-gridded matrix and the solve
  // must run over the survivor communicator.
  Communicator& active = outcome.active_comm(comm);
  DistSymmetricTileMatrix& factor = outcome.active_matrix(k);
  if (result.report.recovered) {
    // Report the map and footprint that were actually factored.
    result.map = result.report.final_map;
    auto bytes = static_cast<double>(factor.local_storage_bytes());
    active.allreduce_sum(&bytes, 1);
    result.factor_bytes = static_cast<std::size_t>(bytes);
  }
  result.weights = phenotypes;
  dist_tiled_potrs(runtime, active, factor, result.weights);
  if (ft != nullptr) *ft = std::move(outcome);
  return result;
}

bool fault_tolerance_requested(const Communicator& comm) {
  return comm.fault_injection_active() || env_size_t("KGWAS_FT", 0) != 0;
}

DistTileMatrix dist_build_cross_kernel(
    Runtime& runtime, Communicator& comm, const ProcessGrid& grid,
    const GenotypeMatrix& test_genotypes,
    const Matrix<float>& test_confounders,
    const GenotypeMatrix& train_genotypes,
    const Matrix<float>& train_confounders, const BuildConfig& config) {
  KGWAS_CHECK_ARG(grid.ranks() == comm.size(),
                  "process grid does not match the communicator world");
  const KernelTileGenerator generator(test_genotypes, test_confounders,
                                      train_genotypes, train_confounders,
                                      config);
  DistTileMatrix k(test_genotypes.patients(), train_genotypes.patients(),
                   config.tile_size, comm.size(), comm.rank());
  generate_cross_tiles(
      runtime, generator, k,
      [&k](std::size_t ti, std::size_t tj) { return k.is_local(ti, tj); });
  comm.barrier();
  return k;
}

Matrix<float> dist_predict(Runtime& runtime, Communicator& comm,
                           DistTileMatrix& cross_kernel,
                           const Matrix<float>& weights) {
  KGWAS_CHECK_ARG(cross_kernel.ranks() == comm.size(),
                  "matrix layout does not match the communicator world");
  Matrix<float> predictions(cross_kernel.rows(), weights.cols());
  submit_predict_rows(runtime, cross_kernel, weights, predictions,
                      [&cross_kernel](std::size_t ti) {
                        return cross_kernel.row_owner(ti) ==
                               cross_kernel.rank();
                      });
  // Every rank returns the full prediction matrix.  Build's closing
  // barrier already fenced every progress loop, so no frame of this
  // gather can reach one.
  detail::allgather_row_blocks(
      comm, predictions, cross_kernel.tile_rows(),
      cross_kernel.tile_size(), Phase::kPredictGather,
      [&cross_kernel](std::size_t ti) { return cross_kernel.row_owner(ti); },
      [&cross_kernel](std::size_t ti) {
        return cross_kernel.tile_height(ti);
      });
  comm.barrier();
  return predictions;
}

DistKrrResult run_dist_krr(int ranks, const GwasDataset& train,
                           const GwasDataset& test, const KrrConfig& config) {
  const int world = ranks > 0 ? ranks : configured_ranks();
  const telemetry::TelemetryConfig telemetry_cfg =
      telemetry::telemetry_config();
  std::vector<telemetry::TraceStream> streams(
      static_cast<std::size_t>(world));
  BuildConfig build = config.build;
  build.gamma = resolve_gamma(config, train.genotypes);
  DistKrrResult result;
  // A KGWAS_FAULT_PLAN in the environment arms the world's deterministic
  // fault injector (and, via fault_tolerance_requested, routes Associate
  // through the checkpointed factorization).
  result.wire = run_ranks(world, FaultPlan::from_env(), [&](Communicator& comm) {
    comm.set_event_recording(telemetry_cfg.trace_enabled());
    Runtime runtime(configured_workers_per_rank(world));
    runtime.profiler().set_rank(comm.rank());
    const ProcessGrid grid(world);

    DistSymmetricTileMatrix kernel = dist_build_kernel_matrix(
        runtime, comm, grid, train.genotypes, train.confounders, build);
    const bool ft_enabled = fault_tolerance_requested(comm);
    DistFtResult ft;
    AssociateResult assoc =
        dist_associate(runtime, comm, kernel, train.phenotypes,
                       config.associate, ft_enabled ? &ft : nullptr);
    // After a rank loss the remaining phases run over the survivor
    // communicator and a grid of the survivor count; a killed rank never
    // reaches this point (its RankKilled unwound to run_ranks).
    Communicator& active = ft.active_comm(comm);
    const ProcessGrid post_grid(active.size());

    DistTileMatrix cross = dist_build_cross_kernel(
        runtime, active, post_grid, test.genotypes, test.confounders,
        train.genotypes, train.confounders, build);
    Matrix<float> predictions =
        dist_predict(runtime, active, cross, assoc.weights);

    if (active.rank() == 0) {
      result.weights = std::move(assoc.weights);
      result.predictions = std::move(predictions);
      result.map = assoc.map;
      result.factor_bytes = assoc.factor_bytes;
      result.fp32_bytes = assoc.fp32_bytes;
      result.report = std::move(assoc.report);
      if (ft_enabled) result.fault.emplace(ft);
    }

    if (telemetry_cfg.any_enabled()) {
      // Each rank writes only its own slot: no cross-thread sharing.
      telemetry::TraceStream stream =
          telemetry::capture_stream(comm.rank(), runtime.profiler());
      stream.comm = comm.comm_events();
      streams[static_cast<std::size_t>(comm.rank())] = std::move(stream);
    }
  });

  if (telemetry_cfg.any_enabled()) {
    telemetry::RunReportInputs inputs;
    inputs.phase = "dist_krr";
    inputs.ranks = world;
    inputs.streams = &streams;
    inputs.wire = &result.wire;
    if (result.fault) inputs.fault = &*result.fault;
    telemetry::write_run_artifacts(telemetry_cfg, "trace_dist_krr.json",
                                   inputs);
  }
  return result;
}

}  // namespace kgwas::dist
