// Internal helpers shared by the distributed algorithms: the expected-
// receive bookkeeping that wires message arrival into the task graph
// (one round's received tiles, owned by the round's policy), and the FP32
// row-block transport of replicated dense operands (RHS blocks,
// prediction blocks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/status.hpp"
#include "common/timer.hpp"
#include "dist/communicator.hpp"
#include "dist/tile_transport.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tile.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas::dist::detail {

/// Blocking receive with telemetry: records how long the driving thread
/// waited (the progress loop's recv-wait is the dist layer's idle time)
/// and, when event recording is on, one "recv" comm event that becomes
/// the destination end of the frame's flow arrow in the merged trace.
inline Message recv_any_timed(Communicator& comm) {
  static telemetry::Histogram& recv_wait =
      telemetry::MetricRegistry::global().histogram("dist.recv_wait_ns");
  const std::uint64_t t0 = Timer::now_ns();
  Message msg = comm.recv_any();
  const std::uint64_t t1 = Timer::now_ns();
  recv_wait.record(t1 - t0);
  if (comm.event_recording()) {
    telemetry::CommEvent event;
    event.tag = msg.tag;
    event.peer = msg.src;
    event.is_send = false;
    event.bytes = msg.payload.size();
    event.start_ns = t0;
    event.end_ns = t1;
    comm.record_comm_event(event);
  }
  return msg;
}

/// One expected remote tile: the received slot the payload decodes into
/// and the runtime event whose completion releases the consuming tasks.  The
/// slot adopts whatever representation the frame carries (dense or TLR),
/// so one progress loop serves both.
struct PendingRecv {
  TileSlot* slot = nullptr;
  ExternalEvent event;
};

using ExpectedMap = std::unordered_map<std::uint64_t, PendingRecv>;

/// The rank's progress engine: consume every expected frame (any arrival
/// order), adopt the payload into its received slot, and complete the recv
/// event so dependent tasks release.  Runs on the driving thread while
/// the runtime's workers execute whatever is already unblocked — workers
/// never block on communication, which is what makes the protocol
/// deadlock-free for any rank/worker count.
///
/// `wakeup_tag` (0 = disabled) arms the breakdown-recovery watch: when a
/// frame with that tag arrives (sent by a failing rank's error callback
/// to every rank, itself included), the runtime's not-yet-started tasks
/// are cancelled, every remaining recv event is force-signalled so the
/// local graph still drains, and the function returns true.  Returns
/// false on a normal complete drain.
inline bool drain_expected(Runtime& runtime, Communicator& comm,
                           ExpectedMap& expected,
                           std::uint64_t wakeup_tag = 0) {
  try {
    while (!expected.empty()) {
      const Message msg = recv_any_timed(comm);
      if (wakeup_tag != 0 && msg.tag == wakeup_tag) {
        runtime.cancel();
        for (auto& [tag, pending] : expected) {
          runtime.signal_external(pending.event);
        }
        expected.clear();
        return true;
      }
      auto it = expected.find(msg.tag);
      if (it == expected.end()) {
        // Under fault injection a duplicated frame's second copy arrives
        // after the first already satisfied the expectation; drop it.
        // Without injection an unexpected frame is a protocol bug.
        KGWAS_CHECK_ARG(comm.fault_injection_active(),
                        "received a tile frame no submitted task expects");
        static telemetry::Counter& dup_ignored =
            telemetry::MetricRegistry::global().counter(
                "dist.dup_frames_ignored");
        dup_ignored.add(1);
        continue;
      }
      decode_slot(msg.payload, *it->second.slot);
      runtime.signal_external(it->second.event);
      expected.erase(it);
    }
  } catch (...) {
    // Abort path (e.g. WorldAborted after a peer failure): quiesce the
    // runtime before the exception leaves.  Workers may still be running
    // tasks that read received slots, and the unwinding caller is about
    // to destroy the policy owning them.  Cancel what has not started,
    // signal every remaining event so the graph can drain instead of
    // waiting forever on receives that will never happen, and wait —
    // tasks reading unfilled (0 x 0) slots fail their own shape checks,
    // and those task errors are collateral of the abort.
    runtime.cancel();
    for (auto& [tag, pending] : expected) {
      runtime.signal_external(pending.event);
    }
    expected.clear();
    try {
      runtime.wait();
    } catch (...) {
    }
    throw;
  }
  return false;
}

/// The tiles one round of a distributed algorithm receives, keyed by wire
/// tag, and the receive events that fill them.  A received tile belongs
/// to the round, not to the matrix: it dies with the policy that expected
/// it, so nothing received survives into a retry or a later phase.  The
/// producer side mirrors `expect` with one send_slot per (tag, consumer
/// rank).
class Received {
 public:
  /// The slot the tile `tag` is received into.
  const TileSlot& slot(std::uint64_t tag) const { return slots_.at(tag); }

  /// Expects the tile `tag`: the writer of its slot is a receive event,
  /// completed by drain_expected when the frame arrives, so consumer
  /// tasks declare a Read on the slot.
  void expect(Runtime& runtime, std::uint64_t tag, int priority) {
    TileSlot& slot = slots_[tag];
    const ExternalEvent event = runtime.submit_external(
        TaskDesc{"recv_tile", {{&slot, Access::kWrite}}, priority});
    expected_.emplace(tag, PendingRecv{&slot, event});
  }

  ExpectedMap& expected() { return expected_; }

 private:
  // Node-based: a slot keeps its address while later tiles are expected.
  std::unordered_map<std::uint64_t, TileSlot> slots_;
  ExpectedMap expected_;
};

/// Wraps rows [r0, r0 + rows) of a dense FP32 matrix as a transport tile
/// (FP32 storage: the encode is exact).
inline Tile rows_as_tile(const Matrix<float>& b, std::size_t r0,
                         std::size_t rows) {
  Tile t(rows, b.cols(), Precision::kFp32);
  t.encode_from(&b(r0, 0), b.ld());
  return t;
}

/// Allgathers the row blocks of a replicated FP32 matrix: block t (rows
/// [t * block_rows, t * block_rows + height(t))) is final on rank
/// owner(t), which ships it to every other rank as a dense slot frame.
/// Collective; callers fence it with barriers so no progress loop sees
/// the frames.
template <class Owner, class Height>
void allgather_row_blocks(Communicator& comm, Matrix<float>& m,
                          std::size_t blocks, std::size_t block_rows,
                          Phase phase, Owner owner, Height height) {
  const int me = comm.rank();
  for (std::size_t t = 0; t < blocks; ++t) {
    if (owner(t) != me) continue;
    const Tile block = rows_as_tile(m, t * block_rows, height(t));
    for (int r = 0; r < comm.size(); ++r) {
      if (r != me) send_dense_slot(comm, r, make_tile_tag(phase, t, 0), block);
    }
  }
  TileSlot slot;
  for (std::size_t t = 0; t < blocks; ++t) {
    if (owner(t) == me) continue;
    decode_slot(comm.recv(make_tile_tag(phase, t, 0)).payload, slot);
    const Tile& block = slot.dense();
    PooledF32 scratch(TilePool::global(), block.elements());
    block.decode_to(scratch.data());
    for (std::size_t j = 0; j < block.cols(); ++j) {
      std::copy_n(scratch.data() + j * block.rows(), block.rows(),
                  &m(t * block_rows, j));
    }
  }
}

}  // namespace kgwas::dist::detail
