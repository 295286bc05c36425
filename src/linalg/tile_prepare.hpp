// Associate's tile preparation as per-tile runtime tasks, written once
// over a tile store and an ownership predicate (the pattern of
// capture_lr_plan / restore_from_source in linalg/cholesky_dag.hpp), so
// the shared-memory associate() and dist::dist_associate() run the same
// code, each on the tiles it owns.
//
// Two passes, each one task per owned lower tile followed by wait()
// (for_each_owned_tile):
//   prepare_tiles     diagonal tiles add alpha; the tile's Frobenius norm
//                     goes to its lower_tile_index slot (adaptive map);
//                     with tlr.tol > 0 every off-diagonal tile is
//                     compressed into a per-tile side slot (compress_tile
//                     does not depend on the precision map).
//   install_prepared  an admissible factor is installed as a TlrTile at
//                     its mapped precision, every other slot converts to
//                     its mapped precision; the per-tile TLR outcome and
//                     slot bytes land in a TlrTally.
// The caller plans the precision map between the two (on a rank, after
// the norm allreduce).  Each tile sees the operations of the serial
// add_diagonal -> plan_precision_map -> plan_tlr_compression ->
// PrecisionMap::apply sequence in the same order, so the prepared matrix
// is bitwise the serial one.
//
// Tasks touch only their own tile and their own side-slot entries, so
// they declare no data dependencies.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/low_rank.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_kernels.hpp"
#include "runtime/runtime.hpp"
#include "tile/precision_map.hpp"

namespace kgwas {

struct TilePrepareOptions {
  float alpha = 0.0f;  ///< added to the diagonal of every diagonal tile
  bool norms = false;  ///< record per-tile Frobenius norms (adaptive map)
  TlrPolicy tlr{};     ///< tol > 0: compress the off-diagonal tiles
};

/// Per-lower-tile state the passes leave, in lower_tile_index order.
/// Entries of tiles this executor does not own stay 0 / empty.
struct PreparedTiles {
  std::vector<double> norms;  ///< when options.norms
  /// Side slots of the compression, when tlr.tol > 0; emptied by
  /// install_prepared.
  std::vector<std::optional<LowRankFactor>> factors;
  TlrTally tally;  ///< filled by install_prepared
};

/// Runs body(ti, tj, idx) for every lower tile `owns(ti, tj)` selects
/// (idx = lower_tile_index), one runtime task per tile, then wait().
template <class Owns, class Body>
void for_each_owned_tile(Runtime& runtime, std::size_t nt, Owns owns,
                         const char* name, const Body& body) {
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      if (!owns(ti, tj)) continue;
      runtime.submit(TaskDesc{name, {}, 0},
                     [&body, ti, tj, idx = lower_tile_index(nt, ti, tj)] {
                       body(ti, tj, idx);
                     });
    }
  }
  runtime.wait();
}

/// Pass 1 over the lower tiles `owns(ti, tj)` selects.  With tlr.tol > 0
/// also stamps the matrix's TLR options, as plan_tlr_compression does.
template <class Tiles, class Owns>
PreparedTiles prepare_tiles(Runtime& runtime, Tiles& a, Owns owns,
                            const TilePrepareOptions& options) {
  const std::size_t nt = a.tile_count();
  const std::size_t lower = nt * (nt + 1) / 2;
  const bool compress = options.tlr.tol > 0.0;
  PreparedTiles prep;
  if (options.norms) prep.norms.assign(lower, 0.0);
  if (compress) {
    prep.factors.resize(lower);
    a.set_tlr_options(options.tlr.tol, options.tlr.max_rank_fraction);
  }
  for_each_owned_tile(
      runtime, nt, owns, "prepare",
      [&](std::size_t ti, std::size_t tj, std::size_t idx) {
        Tile& t = a.tile(ti, tj);
        if (ti == tj) tile_add_diagonal(t, options.alpha);
        if (options.norms) prep.norms[idx] = t.frobenius_norm();
        if (compress && ti != tj) {
          prep.factors[idx] = compress_tile(t, options.tlr);
        }
      });
  return prep;
}

/// Pass 2 over the same tiles: installs pass 1's factors at `map`'s
/// precisions and converts every other slot (PrecisionMap::apply's body),
/// recording each tile's TLR outcome and slot bytes in `prep.tally`.
template <class Tiles, class Owns>
void install_prepared(Runtime& runtime, Tiles& a, Owns owns,
                      const PrecisionMap& map, PreparedTiles& prep) {
  const std::size_t nt = a.tile_count();
  prep.tally = TlrTally(nt);
  for_each_owned_tile(
      runtime, nt, owns, "prepare_install",
      [&](std::size_t ti, std::size_t tj, std::size_t idx) {
        TileSlot& slot = a.slot(ti, tj);
        const Precision p = map.get(ti, tj);
        if (ti != tj && !prep.factors.empty()) {
          prep.tally.install(idx, slot, std::move(prep.factors[idx]), p);
        }
        slot.convert_to(p);
        prep.tally.bytes[idx] = static_cast<double>(slot.storage_bytes());
      });
  prep.factors.clear();
}

}  // namespace kgwas
