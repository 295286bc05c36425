// mpblas::batch — batched execution of homogeneous tile-kernel groups.
//
// The paper's throughput rests on saturating the hardware with many small
// same-shape tile kernels (GEMM/SYRK/TRSM over mixed-precision tiles).
// Executed one task at a time, each kernel pays its own dispatch, its own
// scratch allocation and its own operand decode even when the batch
// neighbours read the very same panel tiles.  This layer provides:
//
//  * `BatchKey` builders — 64-bit structural keys over (op, shape,
//    precision signature).  Tasks with equal keys are homogeneous and may
//    be executed back-to-back as one blocked call; the runtime's
//    `submit_batchable` coalesces ready tasks by this key.
//  * `BatchScope` — a thread-local RAII decode cache active while a
//    coalesced group runs.  Tile kernels route read-operand decodes
//    through the scope, so a panel tile consumed by several GEMMs of the
//    same batch is dequantized exactly once.  Decoding is deterministic,
//    which keeps batched results bitwise identical to the per-task path.
//  * `gemm_batch` / `syrk_batch` — explicit group executors (one blocked
//    call over a descriptor span) used by the benches and tests, and the
//    model for future GPU batched backends.
//
// Scratch comes from the TilePool, so steady-state batches allocate
// nothing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "mpblas/kernels.hpp"
#include "tile/tile.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas::mpblas::batch {

/// Largest task group a single scope serves (the runtime's batch bound).
inline constexpr std::size_t kMaxGroupTasks = 64;

/// Operation tag of a batch key.  Values beyond kCustomBase are free for
/// callers defining their own homogeneous task families (e.g. kernel-tile
/// generation in the KRR Build phase).
enum class BatchOp : std::uint8_t {
  kGemm = 1,
  kSyrk = 2,
  kTrsm = 3,
  kBuild = 4,
  kPredict = 5,
  kTlrGemm = 6,
  kTlrSyrk = 7,
  kCustomBase = 16,
};

/// Packs (op, m, n, k, precision triple) into a non-zero 64-bit key.
/// Dimensions are truncated to 12 bits — tiles are far smaller than 4096
/// in every pipeline, and a rare truncation collision only merges groups
/// (harmless: every task body is self-contained).
constexpr std::uint64_t make_key(BatchOp op, std::size_t m, std::size_t n,
                                 std::size_t k, Precision pa, Precision pb,
                                 Precision pc) {
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(op) << 48) |
         ((static_cast<std::uint64_t>(m) & 0xFFF) << 36) |
         ((static_cast<std::uint64_t>(n) & 0xFFF) << 24) |
         ((static_cast<std::uint64_t>(k) & 0xFFF) << 12) |
         (static_cast<std::uint64_t>(pa) << 8) |
         (static_cast<std::uint64_t>(pb) << 4) |
         static_cast<std::uint64_t>(pc);
}

// --- TLR (rank-bucketed) keys -------------------------------------------
//
// A TLR trailing update's cost is governed by its operands' factor ranks,
// not the tile shape alone, so TLR tasks coalesce by *rank bucket*:
// power-of-two buckets keep groups homogeneous enough that one group's
// skinny factor products share shapes within 2x, while ranks drifting by
// one (recompression jitter) still land in the same group.

/// Power-of-two rank bucket: 0 for rank 0, otherwise bit_width(rank)
/// (1 -> 1, 2..3 -> 2, 4..7 -> 3, ...).
constexpr std::uint64_t tlr_rank_bucket(std::size_t rank) {
  std::uint64_t b = 0;
  while (rank != 0) {
    ++b;
    rank >>= 1;
  }
  return b;
}

/// Bucket marker for a dense operand of a TLR-mode update (the mixed
/// LR x dense cases group separately from LR x LR).
inline constexpr std::uint64_t kTlrDenseBucket = 0x3E;
/// Bucket marker for an operand whose rank is not locally known (a remote
/// tile still in flight on the distributed path).  Keys are per-rank
/// grouping hints only — no cross-rank consistency is required.
inline constexpr std::uint64_t kTlrUnknownBucket = 0x3F;

/// Packs (op, m, n, operand rank buckets, output precision) into a
/// non-zero key.  The two 6-bit bucket fields replace the dense key's
/// k-dimension and operand-precision fields: within a bucket the factor
/// product shapes agree to within 2x, which is what the blocked executor
/// needs to share packing and decode work.
constexpr std::uint64_t make_tlr_key(BatchOp op, std::size_t m, std::size_t n,
                                     std::uint64_t bucket_a,
                                     std::uint64_t bucket_b, Precision pc) {
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(op) << 48) |
         ((static_cast<std::uint64_t>(m) & 0xFFF) << 36) |
         ((static_cast<std::uint64_t>(n) & 0xFFF) << 24) |
         ((bucket_a & 0x3F) << 18) | ((bucket_b & 0x3F) << 12) |
         static_cast<std::uint64_t>(pc);
}

/// Thread-local decode-sharing scope.  While a scope is active on the
/// executing thread, tile kernels decode read-only operands through
/// `decode()`, which caches the FP32 image per tile.  Writers must call
/// `invalidate()` after re-encoding a tile so a later reader in the same
/// group decodes the fresh payload.  Scopes nest (the inner one wins).
///
/// The cache is a flat array scanned linearly: a group holds at most
/// kMaxGroupTasks kernels with two read operands each, and at those
/// sizes a pointer scan beats hashing while allocating nothing.
class BatchScope {
 public:
  explicit BatchScope(TilePool& pool = TilePool::global());
  ~BatchScope();

  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  /// The scope active on this thread, or nullptr.
  static BatchScope* current() noexcept;

  /// Cached FP32 decode of `t` (leading dimension = t.rows()), or
  /// nullptr when the cache is full — the caller must then decode into
  /// its own scratch (decode_read below does exactly that).
  const float* decode(const Tile& t);
  /// Drops the cached decode of `t` (call after writing the tile).
  void invalidate(const Tile& t);

  /// Packed-backend analogue of decode(): the engine-packed image of
  /// tile `t` as a GEMM left operand (NoTrans), packed — and therefore
  /// decoded from storage — on first use and reused while consecutive
  /// kernels in the group read the same tile.  Packing is
  /// deterministic, so prepacked execution stays bitwise identical to
  /// the per-task path.  Returns nullptr for an empty tile.
  const kernels::PackedA* packed_a(const Tile& t);
  /// Same for tile `t` as the GEMM right operand (op(B) = t^T) — the
  /// operand the trailing-update GEMMs of one coalesced batch actually
  /// share (all (i, j) updates of one panel column j read tile (j, k)).
  const kernels::PackedB* packed_b(const Tile& t);

  /// Packed image of a non-tile right operand — the predict-chain shape,
  /// where the links of different row chains in one group share a block
  /// of the (plain FP32) weights matrix.  Keyed by the view's identity
  /// (data pointer, layout, precisions) plus the op(B) shape k x n.
  /// Contract: the underlying buffer must not change while this scope is
  /// active (there is no invalidation hook for non-tile memory; tile
  /// operands must use packed_b above).  Returns nullptr when k or n is
  /// zero.
  const kernels::PackedB* packed_view_b(const kernels::OperandView& view,
                                        std::size_t k, std::size_t n);

  std::size_t hits() const noexcept { return hits_; }
  std::size_t misses() const noexcept { return misses_; }

 private:
  // Two read operands per kernel bounds the live-entry count for the
  // built-in kernels; invalidate only shrinks it.  When a group of
  // unusual task bodies does overflow the cache, decode() returns
  // nullptr and readers fall back to local pooled scratch.
  static constexpr std::size_t kCapacity = 2 * kMaxGroupTasks + 8;

  struct Entry {
    const Tile* tile = nullptr;
    AlignedVector<float> buffer;
  };

  TilePool& pool_;
  BatchScope* prev_;
  std::array<Entry, kCapacity> entries_;
  std::size_t count_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  // Packed-backend shared operands (one slot per role: a batch group's
  // consecutive tasks share their panel operand; a different tile simply
  // repacks).
  const Tile* packed_a_tile_ = nullptr;
  kernels::PackedA packed_a_;
  const Tile* packed_b_tile_ = nullptr;
  kernels::PackedB packed_b_;
  // Non-tile right operand slot (predict weights): the cached view's
  // identity is the key; no invalidation (see packed_view_b contract).
  kernels::OperandView view_b_key_{};
  kernels::PackedB packed_view_b_;
};

/// Decodes a read-only tile operand to FP32 (leading dimension =
/// t.rows()).  Inside an active BatchScope the decode is served from the
/// scope's cache (shared across the coalesced group); otherwise it lands
/// in `local` pooled scratch, which must outlive the returned pointer's
/// use.  Both paths produce the identical image — decoding is
/// deterministic — so batched and per-task execution stay bitwise equal.
const float* decode_read(const Tile& t, PooledF32& local);

/// Re-encodes FP32 values (ld = t.rows()) into `t`'s storage precision
/// and drops any stale cached decode of `t` from the active scope.
void encode_write(Tile& t, const float* values);

/// One trailing-update GEMM of a batch: c -= a * b^T.
struct GemmWork {
  const Tile* a;
  const Tile* b;
  Tile* c;
};

/// One trailing-update SYRK of a batch: c -= a * a^T.
struct SyrkWork {
  const Tile* a;
  Tile* c;
};

/// Executes a homogeneous GEMM group as one blocked call: shared operand
/// decodes, pooled scratch, results bitwise identical to per-task
/// tile_gemm in every precision.
void gemm_batch(std::span<const GemmWork> work,
                TilePool& pool = TilePool::global());

/// Executes a homogeneous SYRK group as one blocked call.
void syrk_batch(std::span<const SyrkWork> work,
                TilePool& pool = TilePool::global());

}  // namespace kgwas::mpblas::batch
