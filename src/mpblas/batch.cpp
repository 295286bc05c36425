#include "mpblas/batch.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "linalg/tile_kernels.hpp"
#include "mpblas/kernels.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas::mpblas::batch {

namespace kernels = mpblas::kernels;

namespace {
thread_local BatchScope* t_current_scope = nullptr;
}  // namespace

BatchScope::BatchScope(TilePool& pool) : pool_(pool), prev_(t_current_scope) {
  t_current_scope = this;
}

BatchScope::~BatchScope() {
  for (std::size_t i = 0; i < count_; ++i) {
    pool_.release_f32(std::move(entries_[i].buffer));
  }
  t_current_scope = prev_;
  if (hits_ > 0 || misses_ > 0) {
    static telemetry::Counter& prepack_hits =
        telemetry::MetricRegistry::global().counter("batch.prepack_hits");
    static telemetry::Counter& prepack_misses =
        telemetry::MetricRegistry::global().counter("batch.prepack_misses");
    prepack_hits.add(hits_);
    prepack_misses.add(misses_);
  }
}

BatchScope* BatchScope::current() noexcept { return t_current_scope; }

const float* BatchScope::decode(const Tile& t) {
  for (std::size_t i = 0; i < count_; ++i) {
    if (entries_[i].tile == &t) {
      ++hits_;
      return entries_[i].buffer.data();
    }
  }
  ++misses_;
  if (count_ == kCapacity) return nullptr;  // caller decodes locally
  AlignedVector<float> buffer = pool_.acquire_f32(t.elements());
  t.decode_to(buffer.data());
  Entry& slot = entries_[count_++];
  slot.tile = &t;
  slot.buffer = std::move(buffer);
  return slot.buffer.data();
}

const kernels::PackedA* BatchScope::packed_a(const Tile& t) {
  if (t.rows() == 0 || t.cols() == 0) return nullptr;
  if (packed_a_tile_ == &t && packed_a_.packed_for(t.rows(), t.cols())) {
    ++hits_;
    return &packed_a_;
  }
  ++misses_;
  pack_tile_a(packed_a_, t);
  packed_a_tile_ = &t;
  return &packed_a_;
}

const kernels::PackedB* BatchScope::packed_b(const Tile& t) {
  if (t.rows() == 0 || t.cols() == 0) return nullptr;
  if (packed_b_tile_ == &t && packed_b_.packed_for(t.cols(), t.rows())) {
    ++hits_;
    return &packed_b_;
  }
  ++misses_;
  pack_tile_b(packed_b_, t);
  packed_b_tile_ = &t;
  return &packed_b_;
}

const kernels::PackedB* BatchScope::packed_view_b(
    const kernels::OperandView& view, std::size_t k, std::size_t n) {
  if (k == 0 || n == 0) return nullptr;
  const bool same_view = view_b_key_.data == view.data &&
                         view_b_key_.ld == view.ld &&
                         view_b_key_.trans == view.trans &&
                         view_b_key_.storage == view.storage &&
                         view_b_key_.round_to == view.round_to;
  if (same_view && packed_view_b_.packed_for(k, n)) {
    ++hits_;
    return &packed_view_b_;
  }
  ++misses_;
  packed_view_b_.pack(k, n, view);
  view_b_key_ = view;
  return &packed_view_b_;
}

void BatchScope::invalidate(const Tile& t) {
  if (packed_a_tile_ == &t) packed_a_tile_ = nullptr;
  if (packed_b_tile_ == &t) packed_b_tile_ = nullptr;
  for (std::size_t i = 0; i < count_; ++i) {
    if (entries_[i].tile == &t) {
      pool_.release_f32(std::move(entries_[i].buffer));
      --count_;
      if (i != count_) entries_[i] = std::move(entries_[count_]);
      entries_[count_].tile = nullptr;
      entries_[count_].buffer = AlignedVector<float>{};
      return;
    }
  }
}

const float* decode_read(const Tile& t, PooledF32& local) {
  if (BatchScope* scope = BatchScope::current()) {
    if (const float* cached = scope->decode(t)) return cached;
    // Scope cache full (task bodies decoding many tiles each): fall
    // through to plain pooled scratch — correctness never depends on
    // the cache, only repeat-decode cost does.
  }
  local = PooledF32(TilePool::global(), t.elements());
  t.decode_to(local.data());
  return local.data();
}

void encode_write(Tile& t, const float* values) {
  // Tile::encode_from itself invalidates any active scope's cached
  // decode (as do all Tile mutation paths), so the batched-read contract
  // holds even for task bodies that bypass this helper.
  t.encode_from(values, t.rows());
}

void gemm_batch(std::span<const GemmWork> work, TilePool& pool) {
  // Chunked so arbitrarily large spans never exceed the scope's
  // fixed-capacity decode cache.  For GEMMs the scope shares the
  // *packed* operand panels: a run of tasks reading the same A or B tile
  // packs (and decodes) it once — see BatchScope::packed_a / packed_b,
  // which tile_gemm consults.
  for (std::size_t begin = 0; begin < work.size(); begin += kMaxGroupTasks) {
    const std::size_t end = std::min(work.size(), begin + kMaxGroupTasks);
    BatchScope scope(pool);
    for (std::size_t i = begin; i < end; ++i) {
      tile_gemm(*work[i].a, *work[i].b, *work[i].c);
    }
  }
}

void syrk_batch(std::span<const SyrkWork> work, TilePool& pool) {
  for (std::size_t begin = 0; begin < work.size(); begin += kMaxGroupTasks) {
    const std::size_t end = std::min(work.size(), begin + kMaxGroupTasks);
    BatchScope scope(pool);
    for (std::size_t i = begin; i < end; ++i) {
      tile_syrk(*work[i].a, *work[i].c);
    }
  }
}

}  // namespace kgwas::mpblas::batch
