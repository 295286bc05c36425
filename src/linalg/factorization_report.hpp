// Breakdown-recovery vocabulary of the mixed-precision factorizations.
//
// An over-aggressive precision map can make the tile `potrf` hit a
// non-positive leading minor even though the FP32 matrix is comfortably
// SPD — in a production system serving adaptive maps this is an expected
// event, not a crash.  `BreakdownAction::kEscalate` turns the breakdown
// into a retry loop: the failing diagonal tile is identified from the
// NumericalError's global index, its row/column band is promoted one step
// up the precision ladder (fp4 -> fp8 -> fp16 -> fp32, the same tiles the
// Higham–Mary admissibility analysis says dominate the tile's backward
// error), the matrix is restored from a precision-compressed snapshot,
// and the factorization re-runs.  `FactorizationReport` records what
// happened so callers (associate, solve_with_refinement, the profiler and
// the benches) can account the retry overhead.
#pragma once

#include <cstddef>
#include <vector>

#include "tile/precision_map.hpp"

namespace kgwas {

/// What a tiled factorization does when POTRF reports numerical breakdown.
enum class BreakdownAction {
  kThrow,     ///< propagate the NumericalError to the caller (default)
  kEscalate,  ///< promote the failing tile band and retry from a snapshot
};

/// One escalation step: which diagonal tile broke, where, and how many
/// band tiles were promoted one precision step before the retry.
struct EscalationRecord {
  std::size_t failing_tile = 0;   ///< diagonal tile index that broke down
  long failing_index = 0;         ///< 1-based global column of the minor
  std::size_t tiles_promoted = 0; ///< band tiles promoted for the retry
};

/// Per-factorization diagnostics surfaced by tiled_potrf / dist_tiled_potrf
/// (and through AssociateResult / RefinementResult to end callers).
struct FactorizationReport {
  int attempts = 0;               ///< factorization runs (1 = clean)
  bool recovered = false;         ///< true when >= 1 escalation succeeded
  std::vector<EscalationRecord> events;  ///< one record per retry
  std::size_t tiles_promoted = 0; ///< total band tiles promoted
  /// Tile precisions actually factored (post escalation).  Empty
  /// (tile_count() == 0) on the distributed path when no precision map
  /// was supplied.
  PrecisionMap final_map;

  int escalations() const noexcept { return static_cast<int>(events.size()); }
};

}  // namespace kgwas
