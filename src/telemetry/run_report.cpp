#include "telemetry/run_report.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "dist/communicator.hpp"
#include "mpblas/kernels.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas::telemetry {

TelemetryConfig telemetry_config() {
  TelemetryConfig cfg;
  if (const char* dir = std::getenv("KGWAS_TRACE")) cfg.trace_dir = dir;
  if (const char* path = std::getenv("KGWAS_TELEMETRY")) {
    cfg.report_path = path;
  }
  return cfg;
}

namespace {

/// Same per-task-class fold Profiler::stats uses, over every stream.
std::map<std::string, TaskStats> aggregate_classes(
    const std::vector<TraceStream>& streams) {
  std::map<std::string, TaskStats> out;
  for (const TraceStream& s : streams) {
    for (const TaskSpan& span : s.spans) {
      auto& entry = out[span.name];
      ++entry.count;
      entry.total_seconds +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      entry.flops += span.flops;
    }
  }
  return out;
}

void write_metric(JsonWriter& w, const MetricSnapshot& m) {
  w.key(m.name);
  w.begin_object();
  switch (m.kind) {
    case MetricKind::kCounter:
      w.kv("type", "counter");
      w.kv("value", m.value);
      break;
    case MetricKind::kGauge:
      w.kv("type", "gauge");
      w.kv("value", m.level);
      break;
    case MetricKind::kHistogram:
      w.kv("type", "histogram");
      w.kv("count", m.hist.count);
      w.kv("sum", m.hist.sum);
      w.kv("mean", m.hist.mean());
      // Sparse log2 buckets, keyed by inclusive lower bound.
      w.key("buckets");
      w.begin_object();
      for (std::size_t b = 0; b < HistogramData::kNumBuckets; ++b) {
        if (m.hist.buckets[b] == 0) continue;
        w.kv(std::to_string(HistogramData::bucket_lo(b)),
             m.hist.buckets[b]);
      }
      w.end_object();
      break;
  }
  w.end_object();
}

}  // namespace

void write_run_report_fields(JsonWriter& w, const RunReportInputs& in) {
  static const std::vector<TraceStream> kEmpty;
  const std::vector<TraceStream>& streams =
      in.streams != nullptr ? *in.streams : kEmpty;

  w.kv("schema", "kgwas.run_report.v1");
  w.kv("phase", in.phase);
  w.kv("ranks", in.ranks);

  // Scheduler aggregates, summed over ranks.
  SchedulerStats sched;
  RecoveryStats recovery;
  for (const TraceStream& s : streams) {
    sched.tasks_executed += s.sched.tasks_executed;
    sched.tasks_stolen += s.sched.tasks_stolen;
    sched.steal_attempts += s.sched.steal_attempts;
    sched.queue_depth_samples += s.sched.queue_depth_samples;
    sched.queue_depth_sum += s.sched.queue_depth_sum;
    sched.max_queue_depth =
        std::max(sched.max_queue_depth, s.sched.max_queue_depth);
    recovery.factorizations += s.recovery.factorizations;
    recovery.attempts += s.recovery.attempts;
    recovery.escalations += s.recovery.escalations;
    recovery.tiles_promoted += s.recovery.tiles_promoted;
  }
  w.key("scheduler");
  w.begin_object();
  w.kv("tasks_executed", sched.tasks_executed);
  w.kv("tasks_stolen", sched.tasks_stolen);
  w.kv("steal_attempts", sched.steal_attempts);
  w.kv("avg_queue_depth", sched.avg_queue_depth());
  w.kv("max_queue_depth", sched.max_queue_depth);
  w.end_object();

  w.key("recovery");
  w.begin_object();
  w.kv("factorizations", recovery.factorizations);
  w.kv("attempts", recovery.attempts);
  w.kv("escalations", recovery.escalations);
  w.kv("tiles_promoted", recovery.tiles_promoted);
  w.end_object();

  // The GEMM engine configuration behind every kernel number in this
  // report: two runs with different variants or blockings are not
  // comparable rows, so the report records which one produced it.
  {
    namespace kernels = mpblas::kernels;
    const kernels::Blocking blk = kernels::gemm_blocking();
    w.key("engine");
    w.begin_object();
    w.kv("variant", kernels::to_string(kernels::selected_arch()));
    w.kv("int8_kernel", kernels::int8_kernel());
    w.kv("mr", kernels::gemm_mr());
    w.kv("nr", kernels::gemm_nr());
    w.kv("mc", blk.mc);
    w.kv("kc", blk.kc);
    w.kv("nc", blk.nc);
    w.end_object();
  }

  // Per-task-class FLOP totals and achieved GFLOP/s over every stream.
  w.key("kernel_classes");
  w.begin_object();
  for (const auto& [name, stats] : aggregate_classes(streams)) {
    w.key(name);
    w.begin_object();
    w.kv("count", stats.count);
    w.kv("seconds", stats.total_seconds);
    w.kv("flops", stats.flops);
    w.kv("gflops", stats.gflops());
    w.end_object();
  }
  w.end_object();

  if (in.wire != nullptr) {
    const dist::WireVolume& wire = *in.wire;
    w.key("wire");
    w.begin_object();
    w.kv("frames", wire.messages);
    w.kv("bytes_total", wire.payload_bytes);
    w.kv("tile_bytes_total", wire.total_tile_bytes());
    w.key("by_precision");
    w.begin_object();
    for (std::size_t i = 0; i < kNumPrecisions; ++i) {
      if (wire.tile_payload_bytes[i] == 0) continue;
      w.kv(to_string(static_cast<Precision>(i)), wire.tile_payload_bytes[i]);
    }
    w.end_object();
    w.end_object();
  }

  // TLR block: emitted only when some tlr.* counter fired, so dense runs
  // keep their report schema byte-compatible with earlier versions.
  {
    std::uint64_t tlr_total = 0;
    std::vector<MetricSnapshot> tlr_metrics;
    for (const MetricSnapshot& m : MetricRegistry::global().snapshot()) {
      if (m.kind != MetricKind::kCounter ||
          m.name.rfind("tlr.", 0) != 0) {
        continue;
      }
      tlr_total += m.value;
      tlr_metrics.push_back(m);
    }
    if (tlr_total != 0) {
      w.key("tlr");
      w.begin_object();
      for (const MetricSnapshot& m : tlr_metrics) {
        w.kv(m.name.substr(4), m.value);
      }
      w.end_object();
    }
  }

  if (in.fault != nullptr) {
    const FaultSummary& fault = *in.fault;
    w.key("fault");
    w.begin_object();
    w.kv("injection_active", fault.injection_active);
    w.kv("rank_losses", fault.rank_losses);
    w.kv("last_restore_cut", fault.last_restore_cut);
    w.kv("checkpoints", fault.checkpoints);
    w.kv("checkpoint_tiles", fault.checkpoint_tiles);
    w.kv("checkpoint_bytes", fault.checkpoint_bytes);
    w.kv("restored_tiles", fault.restored_tiles);
    w.kv("restored_bytes", fault.restored_bytes);
    w.key("final_ranks");
    w.begin_array();
    for (const int r : fault.final_ranks) w.value(r);
    w.end_array();
    w.end_object();
  }

  if (in.include_metrics) {
    w.key("metrics");
    w.begin_object();
    for (const MetricSnapshot& m : MetricRegistry::global().snapshot()) {
      write_metric(w, m);
    }
    w.end_object();
  }
}

void write_run_report(const std::string& path, const RunReportInputs& in) {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot open run report file: " + path);
  JsonWriter w(out);
  w.begin_object();
  write_run_report_fields(w, in);
  w.end_object();
  out << "\n";
  if (!out.good()) throw Error("failed writing run report file: " + path);
}

void write_run_artifacts(const TelemetryConfig& cfg,
                         const std::string& trace_name,
                         const RunReportInputs& in) {
  static const std::vector<TraceStream> kNoStreams;
  try {
    if (cfg.trace_enabled()) {
      write_merged_trace(cfg.trace_dir + "/" + trace_name,
                         in.streams != nullptr ? *in.streams : kNoStreams,
                         [&in](JsonWriter& w) {
                           write_run_report_fields(w, in);
                         });
    }
    if (cfg.report_enabled()) write_run_report(cfg.report_path, in);
  } catch (const Error& e) {
    KGWAS_LOG_WARN("telemetry artifact write failed: " << e.what());
  }
}

std::string run_report_json(const RunReportInputs& in) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  write_run_report_fields(w, in);
  w.end_object();
  return out.str();
}

}  // namespace kgwas::telemetry
