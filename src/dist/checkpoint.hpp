// Periodic precision-compressed tile checkpoints of a distributed tiled
// matrix, and the rank-loss restore path that re-ingests them — the data
// plane of the elastic fault-tolerance protocol (dist_cholesky.hpp has
// the control plane).
//
// Consistency model.  A checkpoint is taken at a panel-step *cut* b: the
// collective point where steps [0, b) of the factorization are complete
// on every rank and none of step b's frames exist yet (the per-round
// status allreduce is that point).  At cut b the matrix state is a pure
// function of the input — bitwise identical for every rank count (the
// rank-invariance property the dist tests assert) — which is what makes
// a checkpointed cut restorable onto a *different* process grid.
//
// Capture rule.  Tile (ti, tj), ti >= tj, is touched by exactly the
// panel steps k <= tj (trailing updates for k < tj, finalization at
// k = tj) and never changes afterwards.  A checkpoint at cut b with
// previous committed cut a therefore captures exactly the tiles with
// tj >= a: everything that changed in [a, b).  Each tile's final version
// is captured exactly once (at the first cut past tj) and in-progress
// tiles are re-captured each cut, so the union of captures — newest
// first — is always the full matrix state at the latest cut.
//
// Frames and versioning.  Captures reuse the slot wire frame encoding
// (encode_slot/decode_slot: representation kind + header + raw storage
// bytes, adopted bit-for-bit on restore — a compressed tile checkpoints
// at factor-byte cost and restores in factored form), stamped with their
// cut at commit time.  Each
// slot retains the two newest committed captures: enough to restore the
// previous cut when a rank dies after *some* survivors committed the
// newer one, while a finalized tile's single last capture is retained
// indefinitely.  Staging and commit are separated so a fault arriving
// while a checkpoint write is in flight discards the staged generation
// instead of corrupting the committed one; commit() version-guards the
// cut (strictly newer than the committed cut) so a rolled-back
// factorization cannot double-apply a stale cut.  Barriers fence the
// commit on both sides: every rank has staged the cut before any commits
// it, and every rank has committed it before any leaves the checkpoint,
// so only a death between the two barriers can skew the committed cuts.
//
// Replication.  Every rank stages its own captures locally and ships a
// copy to its ring buddy (logical rank + 1 mod size), so the loss of any
// single rank leaves every capture with at least one surviving holder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/tile_transport.hpp"

namespace kgwas::dist {

/// IO accounting of one checkpoint or restore pass.
struct CheckpointIo {
  std::uint64_t tiles = 0;  ///< captures staged / tiles re-ingested
  std::uint64_t bytes = 0;  ///< frame bytes (own + replica copies)
};

/// Per-rank checkpoint store: committed capture history (own tiles and
/// the ring buddy's replicas) plus one staged, not-yet-committed cut.
/// Driving-thread only.
class TileCheckpoint {
 public:
  /// Cut of the newest fully committed checkpoint; -1 before the first
  /// commit (a rank loss before then is unrecoverable).
  long committed_cut() const noexcept { return committed_cut_; }

  void stage_own(std::size_t ti, std::size_t tj, std::vector<std::byte> frame);
  void stage_replica(std::size_t ti, std::size_t tj,
                     std::vector<std::byte> frame);

  /// Promotes the staged captures to committed state at `cut`.
  /// Version-guarded: `cut` must be strictly newer than committed_cut()
  /// (throws InvalidArgument otherwise — the double-rollback guard).
  void commit(long cut);

  /// Drops the staged captures of an aborted checkpoint write.
  void discard_staged();

  /// Returns the committed capture of tile (ti, tj) suitable for a
  /// restore to `restore_cut` — the capture taken exactly at that cut,
  /// or any capture past the tile's final step tj (final versions are
  /// identical) — or nullptr when no suitable capture exists.
  const std::vector<std::byte>* find_own(std::size_t ti, std::size_t tj,
                                         long restore_cut) const;
  const std::vector<std::byte>* find_replica(std::size_t ti, std::size_t tj,
                                             long restore_cut) const;

  /// Wipes everything (history, staged state, committed cut): the store
  /// restarts from scratch after a rollback that invalidates the cut
  /// timeline (escalation restart, rank-loss regeneration).
  void reset();

 private:
  struct Capture {
    long cut = -1;
    std::vector<std::byte> frame;
  };
  struct Slot {
    std::vector<Capture> history;  // newest first, at most 2
    std::vector<std::byte> staged;
    bool has_staged = false;
  };
  using SlotMap = std::unordered_map<std::uint64_t, Slot>;

  static std::uint64_t key(std::size_t ti, std::size_t tj) {
    return (static_cast<std::uint64_t>(ti) << 32) |
           static_cast<std::uint64_t>(tj);
  }
  static const std::vector<std::byte>* find_in(const SlotMap& map,
                                               std::size_t ti, std::size_t tj,
                                               long restore_cut);

  SlotMap own_;
  SlotMap replica_;
  long committed_cut_ = -1;
};

/// Writes one consistent-cut checkpoint of `a` at panel step `cut` into
/// `store`: stages every owned tile of the capture set, ships replica
/// copies to the ring buddy, receives the buddy's copies, barriers,
/// commits, and barriers again, so no rank leaves before every rank has
/// committed the cut.  Collective over `comm` (the matrix's grid must index the
/// same rank space).  `data_phase` namespaces the frame tags
/// (kCheckpoint for the factor matrix, kCheckpointSource for the
/// escalation rollback source).
CheckpointIo write_checkpoint(Communicator& comm, TileCheckpoint& store,
                              const DistSymmetricTileMatrix& a, long cut,
                              Phase data_phase = Phase::kCheckpoint);

/// Rank-loss re-ingest: rebuilds `out` (laid out over the survivor grid)
/// at `restore_cut` from the survivors' stores.  `old_ranks` is the rank
/// list the checkpoints were written under and `dead` the ranks lost
/// from it (both in `comm.parent()`'s physical rank space); `out` must
/// be constructed over the survivor grid with `comm`'s logical ranks.
/// For every tile the holder is its old owner, or the old owner's ring
/// buddy when the owner died; throws UnrecoverableFault when both died
/// or the needed capture is missing.  Collective over `comm` (the
/// survivor communicator).
CheckpointIo restore_from_checkpoint(SurvivorComm& comm,
                                     const TileCheckpoint& store,
                                     const std::vector<int>& old_ranks,
                                     const std::vector<int>& dead,
                                     DistSymmetricTileMatrix& out,
                                     long restore_cut,
                                     Phase data_phase = Phase::kRestore);

}  // namespace kgwas::dist
