#include "krr/associate.hpp"

#include <optional>

#include "common/status.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/trace.hpp"

namespace kgwas {

void add_diagonal(SymmetricTileMatrix& k, float alpha) {
  for (std::size_t t = 0; t < k.tile_count(); ++t) {
    tile_add_diagonal(k.tile(t, t), alpha);
  }
}

PrecisionMap precision_map_from_norms(
    const AssociateConfig& config, std::size_t nt,
    const std::vector<double>& lower_tile_norms) {
  switch (config.mode) {
    case PrecisionMode::kFixed:
      return PrecisionMap(nt, config.adaptive.working);
    case PrecisionMode::kBand:
      return band_precision_map(nt, config.band_fp32_fraction,
                                config.low_precision,
                                config.adaptive.working);
    case PrecisionMode::kAdaptive:
      return adaptive_precision_map_from_norms(lower_tile_norms, nt,
                                               config.adaptive);
  }
  KGWAS_ASSERT(false);
  return {};
}

PrecisionMap plan_precision_map(const SymmetricTileMatrix& k,
                                const AssociateConfig& config) {
  if (config.mode == PrecisionMode::kAdaptive) {
    return adaptive_precision_map(k, config.adaptive);
  }
  return precision_map_from_norms(config, k.tile_count(), {});
}

AssociateResult associate(Runtime& runtime, SymmetricTileMatrix& k,
                          const Matrix<float>& phenotypes,
                          const AssociateConfig& config) {
  KGWAS_CHECK_ARG(phenotypes.rows() == k.n(),
                  "phenotype row count must equal kernel dimension");
  KGWAS_CHECK_ARG(config.alpha > 0.0, "alpha must be positive");

  AssociateResult result;
  TiledPotrfOptions options;
  options.on_breakdown = config.on_breakdown;
  options.max_escalations = config.max_escalations;
  options.report = &result.report;
  // Regularize first: the precision decision must see K + alpha*I, whose
  // diagonal tiles dominate, exactly as the paper applies the adaptive
  // technique "at the beginning of the Associate phase".  Compression
  // runs before the map applies, so factors are computed from the
  // full-fidelity values and quantized exactly once, the same
  // single-rounding contract dense tiles get.
  //
  // Under kEscalate the regularized, still-dense matrix is copied between
  // the passes and kept as the rollback source: a promoted tile is
  // re-encoded from the *pre-demotion* values, so escalation can repair a
  // wrong adaptive guess whose quantization broke positive definiteness,
  // and each planned-low-rank slot is re-truncated from it at the
  // escalated precision (restore_slot).  The copy is the recovery's
  // memory cost — one matrix at working precision.
  std::optional<SymmetricTileMatrix> source;
  prepare_associate(
      runtime, k, [](std::size_t, std::size_t) { return true; }, config,
      [](std::vector<double>&) {},
      [&] {
        if (config.on_breakdown == BreakdownAction::kEscalate) {
          options.source = &source.emplace(k);
        }
      },
      result);
  tiled_potrf(runtime, k, options);
  if (result.report.recovered) {
    // Escalation widened some tiles: report the map and footprint that
    // were actually factored, not the plan that broke down.
    result.map = result.report.final_map;
    result.factor_bytes = k.storage_bytes();
  }
  result.weights = phenotypes;
  tiled_potrs(runtime, k, result.weights);

  // Env-gated telemetry artifacts (KGWAS_TRACE / KGWAS_TELEMETRY): a
  // single-rank trace of the associate phase plus a RunReport.  Failures
  // are logged, never thrown — observability must not fail the solve.
  const telemetry::TelemetryConfig telemetry_cfg =
      telemetry::telemetry_config();
  if (telemetry_cfg.any_enabled()) {
    std::vector<telemetry::TraceStream> streams;
    streams.push_back(telemetry::capture_stream(0, runtime.profiler()));
    telemetry::RunReportInputs inputs;
    inputs.phase = "associate";
    inputs.ranks = 1;
    inputs.streams = &streams;
    telemetry::write_run_artifacts(telemetry_cfg, "trace_associate.json",
                                   inputs);
  }
  return result;
}

}  // namespace kgwas
