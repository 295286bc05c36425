#include "tile/tile.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/status.hpp"
#include "precision/convert.hpp"

namespace kgwas {

Tile::Tile(std::size_t rows, std::size_t cols, Precision precision)
    : rows_(rows),
      cols_(cols),
      precision_(precision),
      storage_(TilePool::global().acquire(rows * cols *
                                          bytes_per_element(precision))) {}

Tile::~Tile() {
  TilePool::global().release(std::move(storage_));
}

Tile::Tile(const Tile& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      precision_(other.precision_),
      storage_(TilePool::global().acquire(other.storage_.size())) {
  std::copy(other.storage_.begin(), other.storage_.end(), storage_.begin());
}

Tile& Tile::operator=(const Tile& other) {
  if (this == &other) return *this;
  if (storage_.size() != other.storage_.size()) {
    TilePool::global().release(std::move(storage_));
    storage_ = TilePool::global().acquire(other.storage_.size());
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  precision_ = other.precision_;
  std::copy(other.storage_.begin(), other.storage_.end(), storage_.begin());
  return *this;
}

Tile& Tile::operator=(Tile&& other) noexcept {
  if (this == &other) return *this;
  TilePool::global().release(std::move(storage_));
  rows_ = other.rows_;
  cols_ = other.cols_;
  precision_ = other.precision_;
  storage_ = std::move(other.storage_);
  return *this;
}

void Tile::convert_to(Precision precision) {
  if (precision == precision_) return;
  AlignedVector<std::byte> converted =
      TilePool::global().acquire(elements() * bytes_per_element(precision));
  convert_buffer(precision_, storage_.data(), precision, converted.data(),
                 elements());
  TilePool::global().release(std::move(storage_));
  storage_ = std::move(converted);
  precision_ = precision;
}

Matrix<float> Tile::to_fp32() const {
  Matrix<float> out(rows_, cols_);
  decode_to(out.data());
  return out;
}

void Tile::decode_to(float* dst) const {
  dequantize_buffer(precision_, storage_.data(), dst, elements());
}

void Tile::from_fp32(const Matrix<float>& values) {
  KGWAS_CHECK_ARG(values.rows() == rows_ && values.cols() == cols_,
                  "tile payload shape mismatch");
  encode_from(values.data(), values.ld());
}

void Tile::encode_from(const float* src, std::size_t ld) {
  if (ld == rows_) {
    quantize_buffer(precision_, src, storage_.data(), elements());
    return;
  }
  const std::size_t col_bytes = rows_ * bytes_per_element(precision_);
  for (std::size_t j = 0; j < cols_; ++j) {
    quantize_buffer(precision_, src + j * ld, storage_.data() + j * col_bytes,
                    rows_);
  }
}

float* Tile::fp32_payload() {
  KGWAS_CHECK_ARG(precision_ == Precision::kFp32,
                  "fp32_payload requires an FP32 tile");
  return reinterpret_cast<float*>(storage_.data());
}

void Tile::from_wire(std::size_t rows, std::size_t cols, Precision precision,
                     const void* payload) {
  const std::size_t bytes = rows * cols * bytes_per_element(precision);
  if (storage_.size() != bytes) {
    TilePool::global().release(std::move(storage_));
    storage_ = TilePool::global().acquire(bytes);
  }
  rows_ = rows;
  cols_ = cols;
  precision_ = precision;
  // An empty tile (a rank-0 factor) may hold a null buffer.
  if (bytes != 0) std::memcpy(storage_.data(), payload, bytes);
}

double Tile::frobenius_norm() const {
  PooledF32 values(TilePool::global(), elements());
  decode_to(values.data());
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values.data()[i];
    sum += v * v;
  }
  return std::sqrt(sum);
}

double Tile::max_abs() const {
  PooledF32 values(TilePool::global(), elements());
  decode_to(values.data());
  double best = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    best = std::max(best, std::fabs(static_cast<double>(values.data()[i])));
  }
  return best;
}

}  // namespace kgwas
