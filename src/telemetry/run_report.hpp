// RunReport: the machine-readable summary artifact of a run.
//
// One schema-stable JSON document ("kgwas.run_report.v1") snapshotting
// everything the runtime can tell about what just executed: scheduler and
// recovery aggregates over every rank's trace stream, per-kernel-class
// FLOP accounting, the GEMM engine configuration behind the numbers, the
// transport's wire ledger (frames, bytes, per-precision tile payload),
// and a fold of the global metrics registry.  `write_run_artifacts`
// embeds the identical object as the trace's "otherData", so traces and
// reports can never disagree on a field's meaning — one serializer
// produces both.
//
// Activation: the `KGWAS_TRACE=<dir>` / `KGWAS_TELEMETRY=<path>` env
// knobs (read per call by `telemetry_config`, so tests can toggle them)
// turn on end-to-end artifact writing in `associate()`, `run_dist_krr`
// and the bench harness without any API change at the call sites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace kgwas::dist {
struct WireVolume;
}  // namespace kgwas::dist

namespace kgwas::telemetry {

class JsonWriter;

/// Env-driven telemetry activation (read fresh on every call).
struct TelemetryConfig {
  std::string trace_dir;     ///< KGWAS_TRACE: directory for trace files
  std::string report_path;   ///< KGWAS_TELEMETRY: RunReport file path

  bool trace_enabled() const noexcept { return !trace_dir.empty(); }
  bool report_enabled() const noexcept { return !report_path.empty(); }
  bool any_enabled() const noexcept {
    return trace_enabled() || report_enabled();
  }
};
TelemetryConfig telemetry_config();

/// Fault-tolerance outcome of a checkpointed factorization: the report's
/// "fault" member.  dist::DistFtResult derives from it, so these fields
/// are the tallies' one store.
struct FaultSummary {
  bool injection_active = false; ///< a KGWAS_FAULT_PLAN was live
  int rank_losses = 0;           ///< ranks lost and recovered from
  long last_restore_cut = -1;    ///< newest cut restored (-1: no restore)
  std::uint64_t checkpoints = 0; ///< committed checkpoint writes
  std::uint64_t checkpoint_tiles = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t restored_tiles = 0;
  std::uint64_t restored_bytes = 0;
  std::vector<int> final_ranks;  ///< surviving physical ranks, logical order
};

struct RunReportInputs {
  std::string phase;  ///< what ran, e.g. "associate" / "dist_krr"
  int ranks = 1;
  /// Per-rank streams to aggregate (may be null/empty: scheduler,
  /// recovery and kernel_classes then report zeros).
  const std::vector<TraceStream>* streams = nullptr;
  /// The transport's wire ledger (the world total run_ranks returns);
  /// null when the run had no transport, and "wire" is omitted.
  const dist::WireVolume* wire = nullptr;
  /// Null when fault tolerance was not active, and "fault" is omitted.
  const FaultSummary* fault = nullptr;
  /// Snapshot MetricRegistry::global() into the "metrics" member.
  bool include_metrics = true;
};

/// Writes the members of the report object through `w` (between the
/// caller's begin_object/end_object) — shared by write_run_report and the
/// trace writer's "otherData".
void write_run_report_fields(JsonWriter& w, const RunReportInputs& in);

/// Writes the full report document to `path` (creating parent
/// directories).  Throws Error when the file cannot be written.
void write_run_report(const std::string& path, const RunReportInputs& in);

/// Writes the artifacts `cfg` asks for: the merged trace of `in.streams`
/// as `<trace_dir>/<trace_name>`, carrying the report as its "otherData",
/// and the report document at `report_path`.  A write failure is logged
/// as a warning, never thrown: telemetry must not fail the run it
/// observes.
void write_run_artifacts(const TelemetryConfig& cfg,
                         const std::string& trace_name,
                         const RunReportInputs& in);

/// The report document as a string (for embedding into BENCH_*.json rows).
std::string run_report_json(const RunReportInputs& in);

}  // namespace kgwas::telemetry
