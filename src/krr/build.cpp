#include "krr/build.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/status.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/mixed.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {

namespace {

/// Throws InvalidArgument naming the first patient/SNP whose dosage is
/// outside {0, 1, 2}: the IBS identity and the INT32 overflow guard both
/// assume that range, and any other value would silently give a wrong
/// kernel.  The per-SNP max is a vectorizable scan; the search for the
/// offending patient runs only on failure.
void check_dosages(const GenotypeMatrix& genotypes, const char* side) {
  const Matrix<std::int8_t>& g = genotypes.matrix();
  for (std::size_t s = 0; s < genotypes.snps(); ++s) {
    const std::int8_t* column = &g(0, s);
    std::uint8_t worst = 0;
    for (std::size_t p = 0; p < genotypes.patients(); ++p) {
      worst = std::max(worst, static_cast<std::uint8_t>(column[p]));
    }
    if (worst <= 2) continue;
    for (std::size_t p = 0; p < genotypes.patients(); ++p) {
      if (static_cast<std::uint8_t>(column[p]) > 2) {
        std::ostringstream msg;
        msg << side << " genotypes: dosage " << static_cast<int>(column[p])
            << " of patient " << p << " at SNP " << s
            << " is outside {0, 1, 2}";
        throw InvalidArgument(msg.str());
      }
    }
  }
}

/// i32 scratch for one tile's integer Gram, drawn from the global
/// TilePool's byte classes and returned on scope exit.
class PooledI32 {
 public:
  explicit PooledI32(std::size_t elements)
      : bytes_(TilePool::global().acquire(elements * sizeof(std::int32_t))) {}
  ~PooledI32() { TilePool::global().release(std::move(bytes_)); }
  PooledI32(const PooledI32&) = delete;
  PooledI32& operator=(const PooledI32&) = delete;

  std::int32_t* data() noexcept {
    return reinterpret_cast<std::int32_t*>(bytes_.data());
  }

 private:
  AlignedVector<std::byte> bytes_;
};

/// Indicator matrices u = [g == 0], v = [g == 2] for the IBS identity.
struct IbsIndicators {
  Matrix<std::int8_t> zero;
  Matrix<std::int8_t> two;
};

IbsIndicators make_indicators(const GenotypeMatrix& genotypes) {
  IbsIndicators ind{Matrix<std::int8_t>(genotypes.patients(), genotypes.snps()),
                    Matrix<std::int8_t>(genotypes.patients(), genotypes.snps())};
  for (std::size_t s = 0; s < genotypes.snps(); ++s) {
    for (std::size_t p = 0; p < genotypes.patients(); ++p) {
      const std::int8_t g = genotypes(p, s);
      ind.zero(p, s) = g == 0 ? 1 : 0;
      ind.two(p, s) = g == 2 ? 1 : 0;
    }
  }
  return ind;
}

/// Per-patient squared norms of the confounder rows (FP32 path).
std::vector<float> confounder_row_norms(const Matrix<float>& confounders) {
  std::vector<float> norms(confounders.rows(), 0.0f);
  for (std::size_t c = 0; c < confounders.cols(); ++c) {
    for (std::size_t p = 0; p < confounders.rows(); ++p) {
      norms[p] += confounders(p, c) * confounders(p, c);
    }
  }
  return norms;
}

}  // namespace

/// Shared read-only inputs of every kernel-tile task.  When both sides
/// are the same cohort (symmetric train kernel), the *_cols pointers
/// alias the row-side data instead of materializing second copies.
struct KernelTileGenerator::Inputs {
  const GenotypeMatrix* genotypes_rows;  // rows side (test or train)
  const GenotypeMatrix* genotypes_cols;  // cols side (train)
  const Matrix<float>* conf_rows;
  const Matrix<float>* conf_cols;
  std::vector<std::int32_t> snp_norms_rows;
  std::vector<std::int32_t> snp_norms_cols_storage;
  const std::vector<std::int32_t>* snp_norms_cols = nullptr;
  std::vector<float> conf_norms_rows;
  std::vector<float> conf_norms_cols_storage;
  const std::vector<float>* conf_norms_cols = nullptr;
  IbsIndicators ind_rows;  // empty for Gaussian
  IbsIndicators ind_cols_storage;  // empty when the sides share a cohort
  const IbsIndicators* ind_cols = nullptr;
  bool ibs = false;
};

KernelTileGenerator::KernelTileGenerator(const GenotypeMatrix& genotypes_rows,
                                         const Matrix<float>& conf_rows,
                                         const GenotypeMatrix& genotypes_cols,
                                         const Matrix<float>& conf_cols,
                                         const BuildConfig& config)
    : config_(config) {
  KGWAS_CHECK_ARG(genotypes_rows.snps() == genotypes_cols.snps(),
                  "row/col SNP layout mismatch");
  KGWAS_CHECK_ARG(config.gamma > 0.0, "gamma must be positive");
  // INT32 overflow guard: max entry of the dosage Gram is 4 * NS.
  KGWAS_CHECK_ARG(genotypes_rows.snps() < (1u << 28),
                  "SNP count would overflow INT32 accumulation");
  check_dosages(genotypes_rows, "row-side");
  if (&genotypes_cols != &genotypes_rows) {
    check_dosages(genotypes_cols, "column-side");
  }
  auto inputs = std::make_shared<Inputs>();
  inputs->genotypes_rows = &genotypes_rows;
  inputs->genotypes_cols = &genotypes_cols;
  inputs->conf_rows = &conf_rows;
  inputs->conf_cols = &conf_cols;
  inputs->snp_norms_rows = genotypes_rows.squared_row_norms();
  if (&genotypes_cols == &genotypes_rows) {
    inputs->snp_norms_cols = &inputs->snp_norms_rows;
  } else {
    inputs->snp_norms_cols_storage = genotypes_cols.squared_row_norms();
    inputs->snp_norms_cols = &inputs->snp_norms_cols_storage;
  }
  inputs->conf_norms_rows = confounder_row_norms(conf_rows);
  if (&conf_cols == &conf_rows) {
    inputs->conf_norms_cols = &inputs->conf_norms_rows;
  } else {
    inputs->conf_norms_cols_storage = confounder_row_norms(conf_cols);
    inputs->conf_norms_cols = &inputs->conf_norms_cols_storage;
  }
  if (config.kernel == KernelType::kIbs) {
    inputs->ibs = true;
    inputs->ind_rows = make_indicators(genotypes_rows);
    if (&genotypes_cols == &genotypes_rows) {
      inputs->ind_cols = &inputs->ind_rows;
    } else {
      inputs->ind_cols_storage = make_indicators(genotypes_cols);
      inputs->ind_cols = &inputs->ind_cols_storage;
    }
  }
  inputs_ = std::move(inputs);
}

void KernelTileGenerator::compute(std::size_t r0, std::size_t c0,
                                  Tile& out) const {
  const Inputs& in = *inputs_;
  const std::size_t mb = out.rows();
  const std::size_t nb = out.cols();
  const std::size_t ns = in.genotypes_rows->snps();
  const std::size_t ldr = in.genotypes_rows->patients();
  const std::size_t ldc = in.genotypes_cols->patients();

  // INT8 GEMM on the packed engine: G_r * G_c^T, exact INT32 accumulation.
  PooledI32 dot(mb * nb);
  gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, mb, nb, ns, 1,
              &in.genotypes_rows->matrix()(r0, 0), ldr,
              &in.genotypes_cols->matrix()(c0, 0), ldc, 0, dot.data(), mb);

  // The epilogue writes straight into the FP32 tile.
  float* k = out.fp32_payload();

  if (!in.ibs) {
    // Fused: d = n_i + n_j - 2 dot (+ confounder distances), k = exp(-g d).
    const std::size_t nc = in.conf_rows->cols();
    if (nc > 0) {
      // -2 * C_r C_c^T accumulated in FP32, staged in the output: each
      // element is read once below before its kernel value replaces it.
      gemm(Trans::kNoTrans, Trans::kTrans, mb, nb, nc, -2.0f,
           &(*in.conf_rows)(r0, 0), in.conf_rows->ld(), &(*in.conf_cols)(c0, 0),
           in.conf_cols->ld(), 0.0f, k, mb);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < mb; ++i) {
        const std::size_t x = i + j * mb;
        double d = static_cast<double>(in.snp_norms_rows[r0 + i]) +
                   static_cast<double>((*in.snp_norms_cols)[c0 + j]) -
                   2.0 * static_cast<double>(dot.data()[x]);
        if (nc > 0) {
          d += static_cast<double>(in.conf_norms_rows[r0 + i]) +
               static_cast<double>((*in.conf_norms_cols)[c0 + j]) +
               static_cast<double>(k[x]);
        }
        // Quantized inputs guarantee d >= 0 up to FP32 rounding of the
        // confounder part; clamp to keep the kernel in (0, 1].
        if (d < 0.0) d = 0.0;
        k[x] = static_cast<float>(std::exp(-config_.gamma * d));
      }
    }
  } else {
    // IBS: shared = 2*NS - sum|gi-gj|; sum|gi-gj| = d - 2 * count2 where
    // count2 = u_r . v_c + v_r . u_c.
    PooledI32 count2(mb * nb);
    gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, mb, nb, ns, 1,
                &in.ind_rows.zero(r0, 0), ldr, &in.ind_cols->two(c0, 0), ldc,
                0, count2.data(), mb);
    gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, mb, nb, ns, 1,
                &in.ind_rows.two(r0, 0), ldr, &in.ind_cols->zero(c0, 0), ldc,
                1, count2.data(), mb);
    const double denom = 2.0 * static_cast<double>(ns);
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < mb; ++i) {
        const std::size_t x = i + j * mb;
        const std::int64_t d = static_cast<std::int64_t>(
                                   in.snp_norms_rows[r0 + i]) +
                               (*in.snp_norms_cols)[c0 + j] -
                               2 * static_cast<std::int64_t>(dot.data()[x]);
        const std::int64_t abs_sum = d - 2 * count2.data()[x];
        k[x] = static_cast<float>(
            (denom - static_cast<double>(abs_sum)) / denom);
      }
    }
  }
}

double KernelTileGenerator::tile_op_count(std::size_t rows,
                                          std::size_t cols) const {
  return 2.0 * static_cast<double>(rows) * static_cast<double>(cols) *
         static_cast<double>(inputs_->genotypes_rows->snps());
}

SymmetricTileMatrix build_kernel_matrix(Runtime& runtime,
                                        const GenotypeMatrix& genotypes,
                                        const Matrix<float>& confounders,
                                        const BuildConfig& config) {
  const std::size_t np = genotypes.patients();
  KGWAS_CHECK_ARG(np > 0, "empty cohort");
  KGWAS_CHECK_ARG(confounders.rows() == np || confounders.rows() == 0,
                  "confounder row count mismatch");

  SymmetricTileMatrix k(np, config.tile_size);
  const KernelTileGenerator generator(genotypes, confounders, genotypes,
                                      confounders, config);

  const std::size_t nt = k.tile_count();
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      DataHandle h = runtime.register_data();
      // Tiles are independent, but the factorization that typically
      // follows consumes panel columns left to right with the diagonal
      // first — generate them in that order.
      const int priority = (static_cast<int>(nt - tj) << 1) +
                           (ti == tj ? 1 : 0);
      const Tile& out = k.tile(ti, tj);
      runtime.submit(
          TaskDesc{"build_k",
                   {{h, Access::kWrite}},
                   priority,
                   generator.tile_op_count(out.rows(), out.cols())},
          [&generator, &k, ti, tj, ts = config.tile_size] {
            generator.compute(ti * ts, tj * ts, k.tile(ti, tj));
          });
    }
  }
  runtime.wait();
  return k;
}

TileMatrix build_cross_kernel(Runtime& runtime,
                              const GenotypeMatrix& test_genotypes,
                              const Matrix<float>& test_confounders,
                              const GenotypeMatrix& train_genotypes,
                              const Matrix<float>& train_confounders,
                              const BuildConfig& config) {
  KGWAS_CHECK_ARG(test_genotypes.snps() == train_genotypes.snps(),
                  "test/train SNP layout mismatch");
  const std::size_t np2 = test_genotypes.patients();
  const std::size_t np1 = train_genotypes.patients();
  TileMatrix k(np2, np1, config.tile_size);

  const KernelTileGenerator generator(test_genotypes, test_confounders,
                                      train_genotypes, train_confounders,
                                      config);

  for (std::size_t tj = 0; tj < k.tile_cols(); ++tj) {
    for (std::size_t ti = 0; ti < k.tile_rows(); ++ti) {
      DataHandle h = runtime.register_data();
      const Tile& out = k.tile(ti, tj);
      // Earlier tile columns feed the prediction row chains first.
      runtime.submit(
          TaskDesc{"build_kx",
                   {{h, Access::kWrite}},
                   static_cast<int>(k.tile_cols() - tj),
                   generator.tile_op_count(out.rows(), out.cols())},
          [&generator, &k, ti, tj, ts = config.tile_size] {
            generator.compute(ti * ts, tj * ts, k.tile(ti, tj));
          });
    }
  }
  runtime.wait();
  return k;
}

double build_op_count(std::size_t n_train, std::size_t n_snps,
                      std::size_t n_confounders) {
  const double np = static_cast<double>(n_train);
  // The symmetric half of the dosage Gram (INT8): np^2 / 2 * ns MACs =
  // np^2 ns ops; the confounder half in FP32 likewise; plus the O(np^2)
  // fused exponentiation (counted once).
  return np * np * static_cast<double>(n_snps) +
         np * np * static_cast<double>(n_confounders) + np * np;
}

}  // namespace kgwas
