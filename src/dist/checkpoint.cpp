#include "dist/checkpoint.hpp"

#include <algorithm>
#include <utility>

#include "common/status.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas::dist {

void TileCheckpoint::stage_own(std::size_t ti, std::size_t tj,
                               std::vector<std::byte> frame) {
  Slot& slot = own_[key(ti, tj)];
  slot.staged = std::move(frame);
  slot.has_staged = true;
}

void TileCheckpoint::stage_replica(std::size_t ti, std::size_t tj,
                                   std::vector<std::byte> frame) {
  Slot& slot = replica_[key(ti, tj)];
  slot.staged = std::move(frame);
  slot.has_staged = true;
}

void TileCheckpoint::commit(long cut) {
  // The double-rollback guard: a factorization rolled back past this
  // store's timeline (escalation restart, rank-loss regeneration) must
  // reset() instead of committing a cut the history already covers.
  KGWAS_CHECK_ARG(cut > committed_cut_,
                  "checkpoint commit is not newer than the committed cut");
  for (SlotMap* map : {&own_, &replica_}) {
    for (auto& [k, slot] : *map) {
      if (!slot.has_staged) continue;
      slot.history.insert(slot.history.begin(),
                          Capture{cut, std::move(slot.staged)});
      if (slot.history.size() > 2) slot.history.resize(2);
      slot.staged.clear();
      slot.has_staged = false;
    }
  }
  committed_cut_ = cut;
}

void TileCheckpoint::discard_staged() {
  for (SlotMap* map : {&own_, &replica_}) {
    for (auto& [k, slot] : *map) {
      slot.staged.clear();
      slot.has_staged = false;
    }
  }
}

const std::vector<std::byte>* TileCheckpoint::find_in(const SlotMap& map,
                                                      std::size_t ti,
                                                      std::size_t tj,
                                                      long restore_cut) {
  const auto it = map.find(key(ti, tj));
  if (it == map.end()) return nullptr;
  // A capture matches the restore cut when it was taken exactly there,
  // or when the tile was already final at the restore cut (tj < cut):
  // every post-final capture holds the identical final version.
  for (const Capture& c : it->second.history) {
    if (c.cut == restore_cut ||
        (restore_cut > static_cast<long>(tj) &&
         c.cut > static_cast<long>(tj))) {
      return &c.frame;
    }
  }
  return nullptr;
}

const std::vector<std::byte>* TileCheckpoint::find_own(
    std::size_t ti, std::size_t tj, long restore_cut) const {
  return find_in(own_, ti, tj, restore_cut);
}

const std::vector<std::byte>* TileCheckpoint::find_replica(
    std::size_t ti, std::size_t tj, long restore_cut) const {
  return find_in(replica_, ti, tj, restore_cut);
}

void TileCheckpoint::reset() {
  own_.clear();
  replica_.clear();
  committed_cut_ = -1;
}

CheckpointIo write_checkpoint(Communicator& comm, TileCheckpoint& store,
                              const DistSymmetricTileMatrix& a, long cut,
                              Phase data_phase) {
  const std::size_t nt = a.tile_count();
  const int me = comm.rank();
  const int world = comm.size();
  const int buddy = (me + 1) % world;
  const int pred = (me + world - 1) % world;
  // Capture set: every tile touched since the previous committed cut
  // (tj >= prev).  Identical on every rank — the committed cut advances
  // in lockstep — so owner and buddy derive the same frame schedule.
  const long prev = store.committed_cut() < 0 ? 0 : store.committed_cut();
  CheckpointIo io;

  // Stage own captures and ship replica copies to the ring buddy (sends
  // are asynchronous; posting them all before receiving the
  // predecessor's copies cannot deadlock).
  static telemetry::Counter& tlr_ckpt_tiles =
      telemetry::MetricRegistry::global().counter("tlr.checkpoint.tiles");
  static telemetry::Counter& tlr_ckpt_bytes =
      telemetry::MetricRegistry::global().counter("tlr.checkpoint.bytes");
  for (std::size_t tj = static_cast<std::size_t>(prev); tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      if (!a.is_local(ti, tj)) continue;
      const TileSlot& slot = a.slot(ti, tj);
      // Slot frames: a compressed tile checkpoints (and replicates) at
      // factor-byte cost and restores in factored form, bit for bit.
      std::vector<std::byte> frame = encode_slot(slot);
      io.tiles += 1;
      io.bytes += frame.size();
      if (slot.is_low_rank()) {
        tlr_ckpt_tiles.add(1);
        tlr_ckpt_bytes.add(frame.size());
      }
      if (world > 1) {
        comm.record_tile_payload(slot.precision(), slot.storage_bytes());
        comm.send(buddy, checkpoint_tag(data_phase, cut, ti, tj), frame);
        io.bytes += frame.size();
      }
      store.stage_own(ti, tj, std::move(frame));
    }
  }
  for (std::size_t tj = static_cast<std::size_t>(prev); tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      if (a.owner(ti, tj) != pred || world == 1) continue;
      Message m = comm.recv(checkpoint_tag(data_phase, cut, ti, tj));
      store.stage_replica(ti, tj, std::move(m.payload));
    }
  }

  // Consistent-cut commit: no rank promotes its staged captures until
  // every rank has staged (and replicated) the full cut, and no rank
  // leaves until every rank has committed it.  A fault before the first
  // barrier leaves every store on the previous committed cut; a kill
  // after the second (the next round's fault point) finds the cut
  // committed on every survivor.  Only a death between the two barriers
  // can leave one cut of skew, which restore's cut agreement absorbs.
  comm.barrier();
  store.commit(cut);
  comm.barrier();
  return io;
}

CheckpointIo restore_from_checkpoint(SurvivorComm& comm,
                                     const TileCheckpoint& store,
                                     const std::vector<int>& old_ranks,
                                     const std::vector<int>& dead,
                                     DistSymmetricTileMatrix& out,
                                     long restore_cut, Phase data_phase) {
  const std::size_t nt = out.tile_count();
  const std::size_t old_world = old_ranks.size();
  KGWAS_CHECK_ARG(old_world >= 1, "empty previous rank list");
  const ProcessGrid old_grid(static_cast<int>(old_world));
  const int my_phys = comm.physical_rank(comm.rank());
  const auto is_dead = [&dead](int rank) {
    return std::binary_search(dead.begin(), dead.end(), rank);
  };
  // Holder of tile (ti, tj)'s capture: its old owner, else the owner's
  // write-time ring buddy.  Every rank derives the same holder map, so
  // the exchange needs no negotiation.
  const auto holder_of = [&](std::size_t ti, std::size_t tj,
                             bool& is_replica) -> int {
    const int owner_idx = old_grid.owner(ti, tj);
    const int owner = old_ranks[static_cast<std::size_t>(owner_idx)];
    if (!is_dead(owner)) {
      is_replica = false;
      return owner;
    }
    const int buddy = old_ranks[(static_cast<std::size_t>(owner_idx) + 1) %
                                old_world];
    if (!is_dead(buddy)) {
      is_replica = true;
      return buddy;
    }
    throw UnrecoverableFault(
        "tile (" + std::to_string(ti) + ", " + std::to_string(tj) +
        "): checkpoint owner and replica buddy both lost");
  };

  CheckpointIo io;
  // Pass 1: every holder posts its frames (local adopts happen inline).
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      bool is_replica = false;
      const int holder = holder_of(ti, tj, is_replica);
      if (holder != my_phys) continue;
      const std::vector<std::byte>* frame =
          is_replica ? store.find_replica(ti, tj, restore_cut)
                     : store.find_own(ti, tj, restore_cut);
      if (frame == nullptr) {
        throw UnrecoverableFault(
            "tile (" + std::to_string(ti) + ", " + std::to_string(tj) +
            "): no committed capture for restore cut " +
            std::to_string(restore_cut));
      }
      const int new_owner = out.owner(ti, tj);  // logical, survivor grid
      if (comm.physical_rank(new_owner) == my_phys) {
        decode_slot(*frame, out.slot(ti, tj));
        io.tiles += 1;
        io.bytes += frame->size();
      } else {
        comm.record_tile_payload(slot_frame_precision(*frame),
                                 slot_frame_payload_bytes(*frame));
        comm.send(new_owner, checkpoint_tag(data_phase, restore_cut, ti, tj),
                  *frame);
      }
    }
  }
  // Pass 2: every new owner collects the frames it did not hold itself.
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      if (!out.is_local(ti, tj)) continue;
      bool is_replica = false;
      if (holder_of(ti, tj, is_replica) == my_phys) continue;
      const Message m =
          comm.recv(checkpoint_tag(data_phase, restore_cut, ti, tj));
      decode_slot(m.payload, out.slot(ti, tj));
      io.tiles += 1;
      io.bytes += m.payload.size();
    }
  }
  comm.barrier();
  return io;
}

}  // namespace kgwas::dist
