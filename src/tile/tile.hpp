// A tile: one block of a tiled matrix, stored in exactly one precision.
//
// This is the paper's central data structure — "a tiled mosaic of
// precisions embedded in a single stored copy of the matrix".  The tile
// owns a byte buffer whose size is rows * cols * bytes_per_element(p), so
// lowering a tile's precision genuinely shrinks its memory footprint
// (and, through the runtime, the volume of data moved between workers).
//
// Numerical contract: `from_fp32` quantizes with round-to-nearest-even
// into the storage format; `to_fp32` decodes exactly (every narrow value
// is representable in FP32).  Compute kernels therefore see precisely the
// values a GPU kernel reading an FP16/FP8 tile would see.
//
// Storage is drawn from the global TilePool: tile construction, precision
// conversion and destruction recycle precision-sized buffers instead of
// hitting the allocator, so repeated Build/factorize/solve sweeps run with
// zero steady-state allocations.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/aligned_buffer.hpp"
#include "mpblas/matrix.hpp"
#include "precision/precision.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {

class Tile {
 public:
  Tile() = default;
  /// Payload contents are UNSPECIFIED until the first write (from_fp32 /
  /// encode_from): storage may be a recycled pool buffer carrying stale
  /// bytes.  Every pipeline generates a tile before reading it; new code
  /// must do the same.
  Tile(std::size_t rows, std::size_t cols,
       Precision precision = Precision::kFp32);
  ~Tile();

  Tile(const Tile& other);
  Tile& operator=(const Tile& other);
  Tile(Tile&& other) noexcept = default;
  Tile& operator=(Tile&& other) noexcept;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t elements() const noexcept { return rows_ * cols_; }
  Precision precision() const noexcept { return precision_; }
  std::size_t storage_bytes() const noexcept { return storage_.size(); }

  /// Re-encodes the payload into `precision` (lossy when narrowing).
  void convert_to(Precision precision);

  /// Decodes the payload into an FP32 matrix (column-major, tight ld).
  Matrix<float> to_fp32() const;
  /// Decodes into a caller-provided buffer of `elements()` floats.
  void decode_to(float* dst) const;

  /// Quantizes an FP32 matrix into the current storage precision.
  void from_fp32(const Matrix<float>& values);
  /// Quantizes from a raw column-major buffer with leading dimension ld.
  void encode_from(const float* src, std::size_t ld);
  /// Write access to an FP32 tile's payload (column-major, ld = rows())
  /// for generators that overwrite every element in place.  Requires
  /// precision() == kFp32.
  float* fp32_payload();

  /// Adopts a wire payload: reshapes to rows x cols in `precision` and
  /// copies rows * cols * bytes_per_element(precision) raw storage bytes
  /// from `payload` — the exact inverse of reading `raw()`.  Used by the
  /// distributed tile transport, which ships tiles at storage precision;
  /// no quantization happens, so the received tile is bit-identical to
  /// the sender's.
  void from_wire(std::size_t rows, std::size_t cols, Precision precision,
                 const void* payload);

  /// Frobenius norm of the decoded payload.
  double frobenius_norm() const;
  /// Max-abs of the decoded payload.
  double max_abs() const;

  /// Read-only storage access: the engine packs from it (decode-on-pack),
  /// the transport ships it, tests compare payloads bit for bit.
  const void* raw() const noexcept { return storage_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Precision precision_ = Precision::kFp32;
  AlignedVector<std::byte> storage_;
};

}  // namespace kgwas
