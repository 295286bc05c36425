// Precision-compressed tile transport: the wire format of the distributed
// execution layer.
//
// Every tile ships as a slot frame: a one-byte representation kind
// (0 = dense, 1 = TLR) followed by the representation's frame.
//  * dense: u32 rows | u32 cols | u8 precision, then the raw storage
//    payload — fp8/fp16/bf16/fp32 bytes exactly as the tile holds them.
//    Lowering a tile's storage precision therefore shrinks the *real*
//    bytes on the wire, not just the modelled bytes of the DAG simulator:
//    an fp16 off-diagonal panel tile costs half the bytes of its fp32
//    twin, which is the paper's data-motion argument made measurable.
//  * TLR: u32 rows | u32 cols | u8 precision | u32 rank, then the raw
//    storage bytes of U (rows x rank) and V (cols x rank) — a rank-r
//    frame costs r * (rows + cols) elements instead of rows * cols, the
//    TLR communication-volume argument.
// Decode adopts the payloads bit-for-bit (Tile::from_wire /
// TlrTile::from_wire), so a received tile is indistinguishable from the
// sender's copy and rank-count invariance stays bitwise; the progress
// loop adopts whatever representation the owner held without per-phase
// knowledge of which tiles are compressed.  Header fields are untrusted:
// a frame whose declared payload overflows, or disagrees with its byte
// count, is rejected with InvalidArgument.
//
// Tags: make_tile_tag packs (phase, ti, tj) into the application tag
// space.  Every protocol in this library sends one frame per
// (phase, tile), so tags are unique and tag-only matching suffices.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/communicator.hpp"
#include "tile/tile.hpp"
#include "tile/tile_slot.hpp"

namespace kgwas::dist {

/// Protocol phases namespacing the tile tags.
enum class Phase : std::uint64_t {
  kPotrfPanel = 1,   ///< factorization panel tiles (post POTRF/TRSM)
  kSolveFactor = 2,  ///< factor tiles re-shipped to solve consumers
  kSolveForward = 3, ///< RHS blocks, forward sweep (post trsm_fwd)
  kSolveBackward = 4,///< RHS blocks, backward sweep (post trsm_bwd)
  kSolveGather = 5,  ///< final solution blocks, allgather
  kPredictGather = 7,///< prediction row blocks, allgather
  kGatherFull = 8,   ///< DistSymmetricTileMatrix -> root full-matrix gather
  kBreakdown = 9,    ///< factorization-breakdown wake-up (recovery protocol)
  kCheckpoint = 10,       ///< factor-state replica frames (buddy exchange)
  kCheckpointSource = 11, ///< escalation-source replica frames
  kRestore = 12,          ///< factor-state frames, rank-loss re-ingest
  kRestoreSource = 13,    ///< escalation-source frames, rank-loss re-ingest
};

/// Application tag of tile (ti, tj) in `phase`; ti/tj < 2^24.
constexpr std::uint64_t make_tile_tag(Phase phase, std::size_t ti,
                                      std::size_t tj) {
  return (static_cast<std::uint64_t>(phase) << 48) |
         ((static_cast<std::uint64_t>(ti) & 0xFFFFFF) << 24) |
         (static_cast<std::uint64_t>(tj) & 0xFFFFFF);
}

/// Tag of tile (ti, tj) in checkpoint/restore traffic at panel-step cut
/// `cut`: the cut (mod 256) keeps consecutive checkpoints' frames apart
/// even when a fast rank has started the next cut's exchange while a
/// slow peer still drains the previous one; ti/tj < 2^20.
constexpr std::uint64_t checkpoint_tag(Phase phase, long cut, std::size_t ti,
                                       std::size_t tj) {
  return (static_cast<std::uint64_t>(phase) << 48) |
         ((static_cast<std::uint64_t>(cut) & 0xFF) << 40) |
         ((static_cast<std::uint64_t>(ti) & 0xFFFFF) << 20) |
         (static_cast<std::uint64_t>(tj) & 0xFFFFF);
}

/// Serialized frame size of a slot (kind byte + inner frame).
std::size_t slot_frame_bytes(const TileSlot& slot);

/// Serializes a slot into a self-describing frame.
std::vector<std::byte> encode_slot(const TileSlot& slot);

/// Deserializes a frame produced by encode_slot into `out`, switching its
/// representation to the frame's.  Throws InvalidArgument on a malformed
/// frame.
void decode_slot(const std::vector<std::byte>& frame, TileSlot& out);

/// Sends a slot to `dest`, recording its payload bytes (storage_bytes(),
/// headers excluded) in the communicator's per-precision wire ledger, and
/// in the tlr.wire.* counters when the slot ships in factored form.
void send_slot(Communicator& comm, int dest, std::uint64_t tag,
               const TileSlot& slot);

/// Sends a dense tile wrapped in a slot frame, without constructing a
/// TileSlot: the wrapper for replicated dense operands (RHS row blocks
/// and the allgathered solution and prediction row blocks).
void send_dense_slot(Communicator& comm, int dest, std::uint64_t tag,
                     const Tile& tile);

/// Storage precision a slot frame declares (ledger accounting for frames
/// handled without decoding, e.g. checkpoint replicas held as bytes).
Precision slot_frame_precision(const std::vector<std::byte>& frame);

/// Payload bytes (headers excluded) of a slot frame at its storage
/// precision — the wire-ledger cost of re-sending the frame.
std::size_t slot_frame_payload_bytes(const std::vector<std::byte>& frame);

}  // namespace kgwas::dist
