// TileSlot: one tile position holding exactly one of two representations —
// a dense `Tile` or a low-rank `TlrTile` factor pair.
//
// Every layer that stores tiles (SymmetricTileMatrix, the distributed
// owner maps and received tiles, the checkpoint store) holds TileSlots
// instead of dispatching on an is_low_rank sidecar: the slot itself knows
// its representation, its shape, its storage precision and its payload
// bytes, so representation-generic code (byte accounting, precision
// conversion, wire/checkpoint framing) is written once.  Representation-
// *specific* code (the factored kernels) asks `is_low_rank()` and takes
// `dense()` or `low_rank()` — accessing the wrong representation throws a
// typed InvalidArgument instead of silently reading an empty tile.
//
// Both payloads are pool-backed (Tile and TlrTile draw from the global
// TilePool), so slots inherit the zero-steady-state-allocation behavior.
// A default-constructed slot is dense and empty (0 x 0) — the state of a
// received slot before its wire frame arrives.
#pragma once

#include <cstddef>
#include <utility>

#include "tile/tile.hpp"
#include "tile/tlr_tile.hpp"

namespace kgwas {

class TileSlot {
 public:
  TileSlot() = default;
  explicit TileSlot(Tile dense) : dense_(std::move(dense)) {}
  explicit TileSlot(TlrTile factors) : lr_(std::move(factors)) {}

  /// True when the slot holds a U * V^T factor pair.
  bool is_low_rank() const noexcept { return lr_.active(); }

  /// Dense payload access; throws InvalidArgument on a low-rank slot.
  Tile& dense();
  const Tile& dense() const;

  /// Factor-pair access; throws InvalidArgument on a dense slot.
  TlrTile& low_rank();
  const TlrTile& low_rank() const;

  /// Shape / precision / payload bytes of whichever representation is
  /// held.  storage_bytes() is THE byte-accounting primitive: memory
  /// footprint, wire volume and checkpoint cost all sum it.
  std::size_t rows() const noexcept {
    return is_low_rank() ? lr_.rows() : dense_.rows();
  }
  std::size_t cols() const noexcept {
    return is_low_rank() ? lr_.cols() : dense_.cols();
  }
  Precision precision() const noexcept {
    return is_low_rank() ? lr_.precision() : dense_.precision();
  }
  std::size_t storage_bytes() const noexcept {
    return is_low_rank() ? lr_.storage_bytes() : dense_.storage_bytes();
  }

  /// Re-encodes the payload (dense tile or both factors) into `precision`.
  void convert_to(Precision precision);

  /// Replaces the representation.
  void set_dense(Tile t);
  void set_low_rank(TlrTile factors);

  /// Reconstructs a low-rank slot into a dense tile at the factors'
  /// storage precision and drops the factors.  No-op precondition: throws
  /// on a dense slot (callers decide the crossover, not the slot).
  void densify();

  /// Decoded FP32 image of either representation (reconstructing factors).
  Matrix<float> to_fp32() const;

 private:
  Tile dense_;
  TlrTile lr_;  ///< inactive (default) means "this slot is dense"
};

}  // namespace kgwas
