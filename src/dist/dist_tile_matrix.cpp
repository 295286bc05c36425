#include "dist/dist_tile_matrix.hpp"

#include <string>

#include "common/status.hpp"
#include "dist/tile_transport.hpp"

namespace kgwas::dist {

namespace {
[[noreturn]] void throw_low_rank_access(std::size_t ti, std::size_t tj) {
  throw InvalidArgument("dense access to low-rank tile (" +
                        std::to_string(ti) + ", " + std::to_string(tj) +
                        "); dispatch on is_low_rank or use slot()");
}
}  // namespace

DistSymmetricTileMatrix::DistSymmetricTileMatrix(std::size_t n,
                                                 std::size_t tile_size,
                                                 const ProcessGrid& grid,
                                                 int my_rank,
                                                 Precision precision)
    : n_(n),
      tile_size_(tile_size),
      nt_(tile_size == 0 ? 0 : (n + tile_size - 1) / tile_size),
      grid_(grid),
      rank_(my_rank) {
  KGWAS_CHECK_ARG(tile_size > 0, "tile size must be positive");
  KGWAS_CHECK_ARG(my_rank >= 0 && my_rank < grid.ranks(),
                  "rank outside the process grid");
  for (std::size_t tj = 0; tj < nt_; ++tj) {
    for (std::size_t ti = tj; ti < nt_; ++ti) {
      if (is_local(ti, tj)) {
        local_.emplace(key(ti, tj),
                       TileSlot(Tile(tile_dim(ti), tile_dim(tj), precision)));
      }
    }
  }
}

std::size_t DistSymmetricTileMatrix::tile_dim(std::size_t t) const {
  KGWAS_ASSERT(t < nt_);
  return std::min(tile_size_, n_ - t * tile_size_);
}

Tile& DistSymmetricTileMatrix::tile(std::size_t ti, std::size_t tj) {
  TileSlot& s = slot(ti, tj);
  if (s.is_low_rank()) throw_low_rank_access(ti, tj);
  return s.dense();
}

const Tile& DistSymmetricTileMatrix::tile(std::size_t ti,
                                          std::size_t tj) const {
  const TileSlot& s = slot(ti, tj);
  if (s.is_low_rank()) throw_low_rank_access(ti, tj);
  return s.dense();
}

TileSlot& DistSymmetricTileMatrix::slot(std::size_t ti, std::size_t tj) {
  auto it = local_.find(key(ti, tj));
  KGWAS_CHECK_ARG(it != local_.end(),
                  "accessed a tile this rank does not own");
  return it->second;
}

const TileSlot& DistSymmetricTileMatrix::slot(std::size_t ti,
                                              std::size_t tj) const {
  auto it = local_.find(key(ti, tj));
  KGWAS_CHECK_ARG(it != local_.end(),
                  "accessed a tile this rank does not own");
  return it->second;
}

std::size_t DistSymmetricTileMatrix::local_storage_bytes() const {
  std::size_t total = 0;
  for (const auto& [k, s] : local_) total += s.storage_bytes();
  return total;
}

void DistSymmetricTileMatrix::apply(const PrecisionMap& map) {
  KGWAS_CHECK_ARG(map.tile_count() == nt_, "precision map size mismatch");
  for (auto& [k, s] : local_) {
    const auto ti = static_cast<std::size_t>(k >> 32);
    const auto tj = static_cast<std::size_t>(k & 0xFFFFFFFF);
    s.convert_to(map.get(ti, tj));
  }
}

void DistSymmetricTileMatrix::from_full(const SymmetricTileMatrix& full) {
  KGWAS_CHECK_ARG(full.n() == n_ && full.tile_size() == tile_size_,
                  "full matrix geometry mismatch");
  for (auto& [k, s] : local_) {
    const auto ti = static_cast<std::size_t>(k >> 32);
    const auto tj = static_cast<std::size_t>(k & 0xFFFFFFFF);
    s = full.slot(ti, tj);
  }
  set_tlr_options(full.tlr_tol(), full.tlr_max_rank_fraction());
}

SymmetricTileMatrix DistSymmetricTileMatrix::gather_full(
    Communicator& comm) const {
  SymmetricTileMatrix out;
  if (comm.rank() == 0) {
    out = SymmetricTileMatrix(n_, tile_size_);
    out.set_tlr_options(tlr_tol_, tlr_max_rank_frac_);
    for (std::size_t tj = 0; tj < nt_; ++tj) {
      for (std::size_t ti = tj; ti < nt_; ++ti) {
        if (is_local(ti, tj)) {
          out.slot(ti, tj) = slot(ti, tj);
        } else {
          const Message m =
              comm.recv(make_tile_tag(Phase::kGatherFull, ti, tj));
          decode_slot(m.payload, out.slot(ti, tj));
        }
      }
    }
  } else {
    for (const auto& [k, s] : local_) {
      const auto ti = static_cast<std::size_t>(k >> 32);
      const auto tj = static_cast<std::size_t>(k & 0xFFFFFFFF);
      send_slot(comm, 0, make_tile_tag(Phase::kGatherFull, ti, tj), s);
    }
  }
  comm.barrier();
  return out;
}

// ------------------------------------------------------------ rectangular

DistTileMatrix::DistTileMatrix(std::size_t rows, std::size_t cols,
                               std::size_t tile_size, int ranks, int my_rank)
    : rows_(rows),
      cols_(cols),
      tile_size_(tile_size),
      tile_rows_(tile_size == 0 ? 0 : (rows + tile_size - 1) / tile_size),
      tile_cols_(tile_size == 0 ? 0 : (cols + tile_size - 1) / tile_size),
      ranks_(ranks),
      rank_(my_rank) {
  KGWAS_CHECK_ARG(tile_size > 0, "tile size must be positive");
  KGWAS_CHECK_ARG(my_rank >= 0 && my_rank < ranks,
                  "rank outside the world");
  for (std::size_t ti = static_cast<std::size_t>(my_rank); ti < tile_rows_;
       ti += static_cast<std::size_t>(ranks)) {
    for (std::size_t tj = 0; tj < tile_cols_; ++tj) {
      local_.emplace_back(tile_height(ti), tile_width(tj), Precision::kFp32);
    }
  }
}

std::size_t DistTileMatrix::tile_height(std::size_t ti) const {
  KGWAS_ASSERT(ti < tile_rows_);
  return std::min(tile_size_, rows_ - ti * tile_size_);
}

std::size_t DistTileMatrix::tile_width(std::size_t tj) const {
  KGWAS_ASSERT(tj < tile_cols_);
  return std::min(tile_size_, cols_ - tj * tile_size_);
}

std::size_t DistTileMatrix::index(std::size_t ti, std::size_t tj) const {
  KGWAS_CHECK_ARG(ti < tile_rows_ && tj < tile_cols_ && is_local(ti, tj),
                  "accessed a tile this rank does not own");
  return ti / static_cast<std::size_t>(ranks_) * tile_cols_ + tj;
}

Tile& DistTileMatrix::tile(std::size_t ti, std::size_t tj) {
  return local_[index(ti, tj)];
}

const Tile& DistTileMatrix::tile(std::size_t ti, std::size_t tj) const {
  return local_[index(ti, tj)];
}

}  // namespace kgwas::dist
