#include "dist/dist_krr.hpp"

#include <cstdlib>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"
#include "dist/progress.hpp"
#include "dist/tile_transport.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "krr/kernels.hpp"
#include "krr/predict.hpp"
#include "linalg/precision_policy.hpp"
#include "mpblas/mixed.hpp"

namespace kgwas::dist {

namespace {

using detail::ExpectedMap;
using detail::drain_expected;

}  // namespace

DistSymmetricTileMatrix dist_build_kernel_matrix(
    Runtime& runtime, Communicator& comm, const ProcessGrid& grid,
    const GenotypeMatrix& genotypes, const Matrix<float>& confounders,
    const BuildConfig& config) {
  const std::size_t np = genotypes.patients();
  KGWAS_CHECK_ARG(np > 0, "empty cohort");
  KGWAS_CHECK_ARG(confounders.rows() == np || confounders.rows() == 0,
                  "confounder row count mismatch");
  KGWAS_CHECK_ARG(grid.ranks() == comm.size(),
                  "process grid does not match the communicator world");

  DistSymmetricTileMatrix k(np, config.tile_size, grid, comm.rank());
  const KernelTileGenerator generator(genotypes, confounders, genotypes,
                                      confounders, config);
  const std::size_t nt = k.tile_count();
  const std::size_t ts = config.tile_size;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      if (!k.is_local(ti, tj)) continue;
      DataHandle h = runtime.register_data();
      const int priority = (static_cast<int>(nt - tj) << 1) +
                           (ti == tj ? 1 : 0);
      const Tile& out = k.tile(ti, tj);
      runtime.submit(
          TaskDesc{"build_k",
                   {{h, Access::kWrite}},
                   priority,
                   generator.tile_op_count(out.rows(), out.cols())},
          [&generator, &k, ti, tj, ts] {
            generator.compute(ti * ts, tj * ts, k.tile(ti, tj));
          });
    }
  }
  runtime.wait();
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
  if (comm.fault_injection_active()) return true;
  const char* env = std::getenv("KGWAS_FT");
  if (env == nullptr || *env == '\0') return false;
  if (env_size_t("KGWAS_FT", 0) != 0) return true;
  // env_size_t returns its fallback for a malformed value, so a value
  // that read 0 above but not under fallback 1 is malformed.
  if (env_size_t("KGWAS_FT", 1) != 0) {
    KGWAS_LOG_WARN("ignoring KGWAS_FT='"
                   << env << "' (want a non-negative integer); fault "
                   << "tolerance stays off");
  }
  return false;
}

DistTileMatrix dist_build_cross_kernel(
    Runtime& runtime, Communicator& comm, const ProcessGrid& grid,
    const GenotypeMatrix& test_genotypes,
    const Matrix<float>& test_confounders,
    const GenotypeMatrix& train_genotypes,
    const Matrix<float>& train_confounders, const BuildConfig& config) {
  KGWAS_CHECK_ARG(test_genotypes.snps() == train_genotypes.snps(),
                  "test/train SNP layout mismatch");
  KGWAS_CHECK_ARG(grid.ranks() == comm.size(),
                  "process grid does not match the communicator world");
  DistTileMatrix k(test_genotypes.patients(), train_genotypes.patients(),
                   config.tile_size, grid, comm.rank());
  const KernelTileGenerator generator(test_genotypes, test_confounders,
                                      train_genotypes, train_confounders,
                                      config);
  const std::size_t ts = config.tile_size;
  for (std::size_t tj = 0; tj < k.tile_cols(); ++tj) {
    for (std::size_t ti = 0; ti < k.tile_rows(); ++ti) {
      if (!k.is_local(ti, tj)) continue;
      DataHandle h = runtime.register_data();
      const Tile& out = k.tile(ti, tj);
      runtime.submit(TaskDesc{"build_kx",
                              {{h, Access::kWrite}},
                              static_cast<int>(k.tile_cols() - tj),
                              generator.tile_op_count(out.rows(), out.cols())},
                     [&generator, &k, ti, tj, ts] {
                       generator.compute(ti * ts, tj * ts, k.tile(ti, tj));
                     });
    }
  }
  runtime.wait();
  comm.barrier();
  return k;
}

Matrix<float> dist_predict(Runtime& runtime, Communicator& comm,
                           DistTileMatrix& cross_kernel,
                           const Matrix<float>& weights) {
  KGWAS_CHECK_ARG(cross_kernel.cols() == weights.rows(),
                  "cross kernel / weights dimension mismatch");
  KGWAS_CHECK_ARG(cross_kernel.grid().ranks() == comm.size(),
                  "matrix grid does not match the communicator world");
  const int me = comm.rank();
  Matrix<float> predictions(cross_kernel.rows(), weights.cols());
  const std::size_t ts = cross_kernel.tile_size();
  const std::size_t nrhs = weights.cols();
  const std::size_t tile_cols = cross_kernel.tile_cols();

  std::unordered_map<std::uint64_t, DataHandle> cache_handles;
  ExpectedMap expected;
  const int recv_priority = static_cast<int>(tile_cols) + 1;

  for (std::size_t ti = 0; ti < cross_kernel.tile_rows(); ++ti) {
    const int row_owner = cross_kernel.row_owner(ti);
    // Ship every tile of this row to its accumulating rank (tiles are
    // final after the Build barrier, so sends post synchronously here);
    // the accumulator wires arrivals as events.
    for (std::size_t tj = 0; tj < tile_cols; ++tj) {
      const std::uint64_t tag = make_tile_tag(Phase::kPredictTile, ti, tj);
      if (cross_kernel.is_local(ti, tj)) {
        if (row_owner != me) {
          send_dense_slot(comm, row_owner, tag, cross_kernel.tile(ti, tj));
        }
      } else if (row_owner == me) {
        detail::expect_tile(runtime, cross_kernel.cache_slot(tag),
                            cache_handles, expected, tag, recv_priority);
      }
    }
    if (row_owner != me) continue;
    // Serial accumulation chain over tile columns, same order and same
    // GEMM as the shared-memory predict — bitwise identical output.
    const DataHandle row_handle = runtime.register_data();
    for (std::size_t tj = 0; tj < tile_cols; ++tj) {
      const std::uint64_t tag = make_tile_tag(Phase::kPredictTile, ti, tj);
      const bool local = cross_kernel.is_local(ti, tj);
      std::vector<Dep> deps{{row_handle, Access::kReadWrite}};
      if (!local) deps.push_back({cache_handles.at(tag), Access::kRead});
      const std::size_t rows = cross_kernel.tile_height(ti);
      const std::size_t cols = cross_kernel.tile_width(tj);
      runtime.submit(
          TaskDesc{"predict_gemm", std::move(deps),
                   static_cast<int>(tile_cols - tj),
                   gemm_op_count(rows, nrhs, cols)},
          [&cross_kernel, &weights, &predictions, ti, tj, tag, local, ts] {
            predict_link(local ? cross_kernel.tile(ti, tj)
                               : cross_kernel.cached(tag),
                         weights, tj * ts, predictions, ti * ts);
          });
    }
  }

  drain_expected(runtime, comm, expected);
  runtime.wait();
  cross_kernel.clear_cache();  // shipped tiles are dead once chains drained
  // Every rank must be past its progress loop before any gather frame is
  // posted: recv_any in a still-draining rank must never see them.
  comm.barrier();

  // Allgather the prediction row blocks so every rank returns the full
  // prediction matrix.
  detail::allgather_row_blocks(
      comm, predictions, cross_kernel.tile_rows(), ts, Phase::kPredictGather,
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
  DistKrrResult result;
  // A KGWAS_FAULT_PLAN in the environment arms the world's deterministic
  // fault injector (and, via fault_tolerance_requested, routes Associate
  // through the checkpointed factorization).
  result.wire = run_ranks(world, FaultPlan::from_env(), [&](Communicator& comm) {
    comm.set_event_recording(telemetry_cfg.trace_enabled());
    Runtime runtime(configured_workers_per_rank(world));
    runtime.profiler().set_rank(comm.rank());
    const ProcessGrid grid(world);

    KrrConfig cfg = config;
    const Matrix<float> train_conf =
        cfg.use_confounders ? train.confounders
                            : Matrix<float>(train.patients(), 0);
    if (cfg.auto_gamma_scale.has_value()) {
      // Deterministic given the replicated genotypes: every rank derives
      // the same gamma (same computation as KrrModel::fit).
      const auto& g = train.genotypes.matrix();
      cfg.build.gamma =
          *cfg.auto_gamma_scale *
          suggest_gamma(std::span<const std::int8_t>(g.data(), g.size()),
                        train.patients(), train.snps());
    }

    DistSymmetricTileMatrix kernel = dist_build_kernel_matrix(
        runtime, comm, grid, train.genotypes, train_conf, cfg.build);
    const bool ft_enabled = fault_tolerance_requested(comm);
    DistFtResult ft;
    AssociateResult assoc =
        dist_associate(runtime, comm, kernel, train.phenotypes, cfg.associate,
                       ft_enabled ? &ft : nullptr);
    // After a rank loss the remaining phases run over the survivor
    // communicator and a grid of the survivor count; a killed rank never
    // reaches this point (its RankKilled unwound to run_ranks).
    Communicator& active = ft.active_comm(comm);
    const ProcessGrid post_grid(active.size());

    const Matrix<float> test_conf =
        cfg.use_confounders ? test.confounders
                            : Matrix<float>(test.patients(), 0);
    DistTileMatrix cross = dist_build_cross_kernel(
        runtime, active, post_grid, test.genotypes, test_conf,
        train.genotypes, train_conf, cfg.build);
    Matrix<float> predictions =
        dist_predict(runtime, active, cross, assoc.weights);

    if (active.rank() == 0) {
      result.weights = std::move(assoc.weights);
      result.predictions = std::move(predictions);
      result.map = assoc.map;
      result.factor_bytes = assoc.factor_bytes;
      result.fp32_bytes = assoc.fp32_bytes;
      result.report = std::move(assoc.report);
      if (ft_enabled) {
        result.fault.valid = true;
        result.fault.injection_active = comm.fault_injection_active();
        result.fault.rank_losses = ft.rank_losses;
        result.fault.last_restore_cut = ft.last_restore_cut;
        result.fault.checkpoints = ft.checkpoints;
        result.fault.checkpoint_tiles = ft.checkpoint_tiles;
        result.fault.checkpoint_bytes = ft.checkpoint_bytes;
        result.fault.restored_tiles = ft.restored_tiles;
        result.fault.restored_bytes = ft.restored_bytes;
        result.fault.final_ranks = ft.final_ranks;
      }
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
    inputs.wire = telemetry::WireSummary::from(result.wire);
    inputs.fault = result.fault;
    try {
      if (telemetry_cfg.trace_enabled()) {
        telemetry::write_merged_trace(
            telemetry_cfg.trace_dir + "/trace_dist_krr.json", streams,
            [&](telemetry::JsonWriter& w) {
              telemetry::write_run_report_fields(w, inputs);
            });
      }
      if (telemetry_cfg.report_enabled()) {
        telemetry::write_run_report(telemetry_cfg.report_path, inputs);
      }
    } catch (const Error& e) {
      // Telemetry must never fail the computation it observes.
      KGWAS_LOG_WARN("telemetry artifact write failed: " << e.what());
    }
  }
  return result;
}

}  // namespace kgwas::dist
