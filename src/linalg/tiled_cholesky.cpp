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

/// One runtime data handle per lower tile of a symmetric tile matrix.
/// Handles are registered anonymously: building "A(i,j)" strings per tile
/// put O(nt^2) allocations on the hot path for zero benefit (traces key on
/// task names, not handle names).
class TileHandles {
 public:
  TileHandles(Runtime& runtime, std::size_t nt)
      : nt_(nt), handles_(nt * (nt + 1) / 2) {
    for (DataHandle& h : handles_) h = runtime.register_data();
  }

  DataHandle operator()(std::size_t ti, std::size_t tj) const {
    return handles_[index(ti, tj)];
  }

 private:
  std::size_t index(std::size_t ti, std::size_t tj) const {
    KGWAS_ASSERT(ti < nt_ && tj <= ti);
    return tj * nt_ - tj * (tj - 1) / 2 + (ti - tj);
  }
  std::size_t nt_;
  std::vector<DataHandle> handles_;
};

/// Shared-memory factorization policy (see linalg/cholesky_dag.hpp): one
/// executor owns every tile, so panel tiles need no transport.
class LocalPotrf {
 public:
  LocalPotrf(Runtime& runtime, SymmetricTileMatrix& a)
      : a_(a), handles_(runtime, a.tile_count()) {}

  SymmetricTileMatrix& matrix() { return a_; }
  bool owns(std::size_t, std::size_t) const { return true; }
  DataHandle handle(std::size_t ti, std::size_t tj) const {
    return handles_(ti, tj);
  }
  void panel_done(std::size_t, std::size_t) {}
  static const TileSlot& operand(const SymmetricTileMatrix& a, std::size_t ti,
                                 std::size_t tj) {
    return a.slot(ti, tj);
  }

 private:
  SymmetricTileMatrix& a_;
  TileHandles handles_;
};

/// Shared-memory solve policy: every RHS row block is local.
class LocalSolve {
 public:
  LocalSolve(Runtime& runtime, const SymmetricTileMatrix& l, Matrix<float>& b)
      : l_(l), b_(b), handles_(l.tile_count()) {
    for (DataHandle& h : handles_) h = runtime.register_data();
  }

  const SymmetricTileMatrix& matrix() const { return l_; }
  Matrix<float>& rhs() { return b_; }
  bool owns_rhs(std::size_t) const { return true; }
  DataHandle rhs_handle(std::size_t t, bool) const { return handles_[t]; }
  void rhs_done(std::size_t, bool, int) {}
  void factor_deps(std::size_t, std::size_t, std::vector<Dep>&) {}
  static void gemm_rhs(const SymmetricTileMatrix& l, Matrix<float>& b,
                       std::size_t i, std::size_t k, bool backward) {
    const std::size_t ts = l.tile_size();
    tlr_gemm_rhs(backward ? l.slot(k, i) : l.slot(i, k), backward,
                 &b(k * ts, 0), b.ld(), &b(i * ts, 0), b.ld(), b.cols());
  }

 private:
  const SymmetricTileMatrix& l_;
  Matrix<float>& b_;
  std::vector<DataHandle> handles_;
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
  // re-truncate the original values at the escalated precision, so the
  // retry factors a genuinely higher-fidelity compression of the same
  // matrix.
  LowRankFactor factor = compress_block(source.dense().to_fp32(), tol);
  if (tlr_rank_admissible(factor.rank(), source.rows(), source.cols(),
                          max_rank_fraction)) {
    dst.set_low_rank(TlrTile(factor.u, factor.v, target));
    return;
  }
  static telemetry::Counter& fallbacks =
      telemetry::MetricRegistry::global().counter("tlr.fallbacks");
  fallbacks.add(1);
  KGWAS_LOG_WARN("TLR rollback re-truncation inadmissible (rank "
                 << factor.rank() << " on " << source.rows() << "x"
                 << source.cols() << " tile); restoring dense");
  Tile t = source.dense();
  if (t.precision() != target) t.convert_to(target);
  dst.set_dense(std::move(t));
}

void escalate_or_throw(Runtime& runtime, FactorizationReport& report,
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
  runtime.profiler().record_recovery(report.attempts, report.events.size(),
                                     report.tiles_promoted);
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
        LocalPotrf x(runtime, a);
        runtime.account_data_motion(tiled_potrf_data_motion_bytes(a));
        submit_potrf_steps(runtime, x, 0, nt, options.base_priority);
        // Throws the NumericalError of a failed pivot (the runtime
        // cancels the rest of the DAG first).
        runtime.wait();
      }
      break;
    } catch (const NumericalError& e) {
      escalate_or_throw(runtime, report, escalate ? &current : nullptr,
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

void tiled_potrf(Runtime& runtime, SymmetricTileMatrix& a, int base_priority) {
  tiled_potrf(runtime, a, TiledPotrfOptions{.base_priority = base_priority});
}

void tiled_potrs(Runtime& runtime, const SymmetricTileMatrix& l,
                 Matrix<float>& b, int base_priority) {
  KGWAS_CHECK_ARG(b.rows() == l.n(), "solve RHS row count mismatch");
  if (l.tile_count() == 0 || b.cols() == 0) return;
  LocalSolve x(runtime, l, b);
  submit_potrs_sweeps(runtime, x, base_priority);
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
