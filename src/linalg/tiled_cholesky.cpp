#include "linalg/tiled_cholesky.hpp"

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "linalg/cholesky_dag.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tlr_kernels.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas {

namespace {

/// Shared-memory factorization policy (see linalg/cholesky_dag.hpp): one
/// executor owns every tile, so panel tiles need no transport.
class LocalPotrf {
 public:
  explicit LocalPotrf(SymmetricTileMatrix& a) : a_(a) {}

  SymmetricTileMatrix& matrix() { return a_; }
  bool owns(std::size_t, std::size_t) const { return true; }
  const TileSlot& slot(std::size_t ti, std::size_t tj) const {
    return a_.slot(ti, tj);
  }
  void panel_done(std::size_t, std::size_t) {}

 private:
  SymmetricTileMatrix& a_;
};

/// Shared-memory solve policy: every RHS row block is local.
class LocalSolve {
 public:
  LocalSolve(const SymmetricTileMatrix& l, Matrix<float>& b) : l_(l), b_(b) {}

  const SymmetricTileMatrix& matrix() const { return l_; }
  Matrix<float>& rhs() { return b_; }
  bool owns_rhs(std::size_t) const { return true; }
  const void* rhs_datum(std::size_t t, bool) const {
    return &b_(t * l_.tile_size(), 0);
  }
  void rhs_done(std::size_t, bool, int) {}
  const TileSlot& factor(std::size_t ti, std::size_t tj) const {
    return l_.slot(ti, tj);
  }
  auto gemm_rhs(const TileSlot& f, std::size_t i, std::size_t k,
                bool backward) {
    const std::size_t ts = l_.tile_size();
    return [&f, &b = b_, i, k, ts, backward] {
      tlr_gemm_rhs(f, backward, &b(k * ts, 0), b.ld(), &b(i * ts, 0), b.ld(),
                   b.cols());
    };
  }

 private:
  const SymmetricTileMatrix& l_;
  Matrix<float>& b_;
};

}  // namespace

void restore_slot(TileSlot& dst, const TileSlot& source, Precision target,
                  bool plan_low_rank, double tol, double max_rank_fraction) {
  if (!plan_low_rank) {
    Tile t = source.is_low_rank()
                 ? [&source] {
                     Tile dense(source.rows(), source.cols(),
                                source.precision());
                     dense.from_fp32(source.low_rank().to_dense());
                     return dense;
                   }()
                 : source.dense();
    if (t.precision() != target) t.convert_to(target);
    dst.set_dense(std::move(t));
    return;
  }
  if (source.is_low_rank()) {
    // Factored snapshot: copy the factor pair and re-encode at the
    // escalated precision — exact when widening, which is the only
    // direction escalation moves.
    TlrTile factors = source.low_rank();
    if (factors.precision() != target) factors.convert_to(target);
    dst.set_low_rank(std::move(factors));
    return;
  }
  // Dense (pre-demotion) source feeding a planned-low-rank slot:
  // re-truncate the original values at the escalated precision with the
  // plan's compressor (the same bits compress_tile computed from them),
  // so the retry factors a genuinely higher-fidelity compression of the
  // same matrix.
  const std::optional<LowRankFactor> factor = compress_block(
      source.dense().to_fp32(), tol,
      tlr_max_rank(source.rows(), source.cols(), max_rank_fraction));
  if (factor) {
    dst.set_low_rank(TlrTile(factor->u, factor->v, target));
    return;
  }
  static telemetry::Counter& fallbacks =
      telemetry::MetricRegistry::global().counter("tlr.fallbacks");
  fallbacks.add(1);
  KGWAS_LOG_WARN("TLR rollback re-truncation of a "
                 << source.rows() << "x" << source.cols()
                 << " tile found no admissible factor; restoring dense");
  Tile t = source.dense();
  if (t.precision() != target) t.convert_to(target);
  dst.set_dense(std::move(t));
}

void escalate_or_throw(Profiler* profiler, FactorizationReport& report,
                       PrecisionMap* map, int max_escalations,
                       long failing_index, std::size_t tile_size,
                       std::size_t tile_count) {
  const std::size_t t =
      potrf_breakdown_tile(failing_index, tile_size, tile_count);
  const std::size_t promoted =
      map != nullptr && report.escalations() < max_escalations
          ? escalate_step(*map, t, map->get(0, 0))
          : 0;
  if (promoted != 0) {
    report.events.push_back(EscalationRecord{t, failing_index, promoted});
    report.tiles_promoted += promoted;
    return;
  }
  // Failed factorizations count too: RecoveryStats tracks breakdown
  // frequency.
  if (profiler != nullptr) {
    profiler->record_recovery(report.attempts, report.events.size(),
                              report.tiles_promoted);
  }
  throw NumericalError(
      "tiled Cholesky: leading minor of order " +
          std::to_string(failing_index) +
          " is not positive definite (consider a larger regularization "
          "alpha or higher tile precision)",
      failing_index);
}

void tiled_potrf(Runtime& runtime, SymmetricTileMatrix& a,
                 const TiledPotrfOptions& options) {
  FactorizationReport scratch;
  FactorizationReport& report = options.report ? *options.report : scratch;
  report = FactorizationReport{};
  const std::size_t nt = a.tile_count();
  PrecisionMap current = current_precision_map(a);

  // Escalation mode: roll back from the caller's pre-demotion source when
  // provided, else retain one precision-compressed copy of the matrix
  // (tile payloads copy at their storage precision, pool-backed).
  const bool escalate = options.on_breakdown == BreakdownAction::kEscalate;
  const auto owns_all = [](std::size_t, std::size_t) { return true; };
  std::optional<SymmetricTileMatrix> snapshot;
  const SymmetricTileMatrix* rollback = options.source;
  std::vector<bool> plan;
  if (escalate) {
    if (rollback != nullptr) {
      KGWAS_CHECK_ARG(rollback->n() == a.n() &&
                          rollback->tile_size() == a.tile_size(),
                      "escalation source geometry mismatch");
    } else {
      rollback = &snapshot.emplace(a);
    }
    plan = capture_lr_plan(a, owns_all);
  }

  for (;;) {
    report.attempts = report.escalations() + 1;
    try {
      if (nt != 0) {
        LocalPotrf x(a);
        submit_potrf_steps(runtime, x, 0, nt);
        // Throws the NumericalError of a failed pivot (the runtime
        // cancels the rest of the DAG first).
        runtime.wait();
      }
      break;
    } catch (const NumericalError& e) {
      escalate_or_throw(&runtime.profiler(), report,
                        escalate ? &current : nullptr,
                        options.max_escalations, e.index(), a.tile_size(),
                        nt);
      restore_from_source(a, *rollback, current, plan, owns_all);
    }
  }
  report.recovered = report.escalations() > 0;
  report.final_map = std::move(current);
  runtime.profiler().record_recovery(report.attempts, report.events.size(),
                                     report.tiles_promoted);
}

void tiled_potrs(Runtime& runtime, const SymmetricTileMatrix& l,
                 Matrix<float>& b) {
  KGWAS_CHECK_ARG(b.rows() == l.n(), "solve RHS row count mismatch");
  if (l.tile_count() == 0 || b.cols() == 0) return;
  LocalSolve x(l, b);
  submit_potrs_sweeps(runtime, x);
  runtime.wait();
}

void tiled_posv(Runtime& runtime, SymmetricTileMatrix& a, Matrix<float>& b) {
  tiled_potrf(runtime, a);
  tiled_potrs(runtime, a, b);
}

std::size_t tiled_potrf_data_motion_bytes(const SymmetricTileMatrix& a) {
  // Tile (i,k) is read by one SYRK and (nt - i - 1) GEMMs after its TRSM,
  // plus the GEMMs where it is the "j" operand: (i - k - 1).  Each read
  // moves storage_bytes() once in the distributed setting.
  const std::size_t nt = a.tile_count();
  std::size_t total = 0;
  for (std::size_t k = 0; k < nt; ++k) {
    for (std::size_t i = k; i < nt; ++i) {
      const std::size_t consumers =
          (i == k) ? (nt - k - 1)                      // panel TRSMs read L_kk
                   : (nt - k - 1);                     // SYRK + GEMM reads
      // A TLR slot moves its factor bytes, not the dense tile's — the
      // communication-volume win of the compressed representation.
      // TileSlot::storage_bytes is the one byte-accounting primitive
      // shared with the wire and checkpoint ledgers.
      total += a.slot(i, k).storage_bytes() * consumers;
    }
  }
  return total;
}

}  // namespace kgwas
