// Build phase: tiled kernel-matrix generation on emulated INT8 tensor
// cores (paper §V-B1, §VI-B2).
//
// Gaussian path.  The squared Euclidean distance between patients i and j
// decomposes as d_ij = ||g_i||^2 + ||g_j||^2 - 2 * g_i . g_j, so a tile of
// the distance matrix is one INT8xINT8->INT32 GEMM (exact for dosage
// data) plus a rank-two correction from the folded norm vector `d` — the
// paper's "no extra temporary matrices" trick: the norms are stored once
// as a vector and each tile is generated on the fly, fused with the
// exponentiation exp(-gamma * d_ij) before it is released.  Real-valued
// confounder columns contribute their own squared distances through an
// FP32 GEMM accumulated into the same tile prior to exponentiation.  The
// exponent -gamma * d_ij is formed in FP64, one tile column at a time,
// and exponentiated by the packed engine's exact vector exp
// (mpblas::kernels::exp_to_f32): each kernel value is
// float(std::exp(-gamma * d_ij)) bit for bit, at the selected variant's
// vector width; the rare lanes that fall back to std::exp are counted in
// the `build.exp_fallbacks` registry counter.
//
// IBS path.  sum|g_i - g_j| = d_ij - 2 * #(loci with |diff| = 2), and the
// count of |diff| = 2 loci is u_i . v_j + v_i . u_j with u = [g == 0],
// v = [g == 2] indicator vectors — so the IBS kernel is three INT8 GEMMs,
// again exact.
//
// Every output tile is an independent task; the runtime runs them all in
// parallel (the Build DAG is embarrassingly parallel, which is why it
// weak-scales essentially perfectly in the paper's Fig. 7).  The two tile
// loops (generate_kernel_tiles, generate_cross_tiles) are written once
// over a tile store and an ownership predicate: shared memory owns every
// tile, a rank of the distributed Build (src/dist/dist_krr.hpp) the tiles
// it stores.
#pragma once

#include <memory>
#include <vector>

#include "gwas/genotype.hpp"
#include "krr/kernels.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {

struct BuildConfig {
  KernelType kernel = KernelType::kGaussian;
  double gamma = 0.01;          ///< Gaussian bandwidth (paper default)
  std::size_t tile_size = 256;  ///< tile edge
};

/// Precomputed Build-phase inputs (squared row norms, IBS indicator
/// matrices) shared read-only by every kernel-tile task, plus the tile
/// computation itself.  The shared-memory builders below and the
/// distributed Build path (src/dist/dist_krr.hpp) both generate tiles
/// through this, so a tile's value depends only on its global block
/// coordinates — which is what makes distributed Build output bitwise
/// identical to the single-rank kernel matrix.
///
/// The referenced genotype/confounder matrices must outlive the
/// generator.  For the symmetric train kernel pass the same cohort for
/// both sides.  The constructor throws InvalidArgument when a side's
/// confounders have neither its patient count of rows nor none, and names
/// the patient and SNP of any dosage outside {0, 1, 2} on either side.
/// Each tile's integer Grams run on the packed engine's INT8 path
/// (gemm_i8_i32) into pooled i32 scratch, and the epilogue writes the
/// kernel values straight into the tile (Gaussian: FP64 exponents through
/// the engine's exact exp_to_f32).
class KernelTileGenerator {
 public:
  KernelTileGenerator(const GenotypeMatrix& genotypes_rows,
                      const Matrix<float>& conf_rows,
                      const GenotypeMatrix& genotypes_cols,
                      const Matrix<float>& conf_cols,
                      const BuildConfig& config);

  /// Computes the kernel tile covering patient row block [r0, r0 + rows)
  /// x column block [c0, c0 + cols) of `out`, an FP32 tile (kernel
  /// matrices are generated at working precision; the precision map
  /// lowers tiles later).  Thread-safe (all shared state is read-only).
  void compute(std::size_t r0, std::size_t c0, Tile& out) const;

  /// Ops charged to one rows x cols kernel-tile task: the dosage GEMM
  /// dominates at 2 * rows * cols * snps (INT8 products accumulated in
  /// INT32, reported as FLOPs).
  double tile_op_count(std::size_t rows, std::size_t cols) const;

  const BuildConfig& config() const noexcept { return config_; }

 private:
  struct Inputs;
  std::shared_ptr<const Inputs> inputs_;
  BuildConfig config_;
};

/// Generates the lower tiles (ti >= tj) of the symmetric kernel `k` that
/// `owns(ti, tj)` selects, one "build_k" task each, in panel-column order
/// with the diagonal tile first (the order the factorization that
/// typically follows consumes them), then waits.
template <class Tiles, class Owns>
void generate_kernel_tiles(Runtime& runtime,
                           const KernelTileGenerator& generator, Tiles& k,
                           Owns owns) {
  const std::size_t nt = k.tile_count();
  const std::size_t ts = k.tile_size();
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      if (!owns(ti, tj)) continue;
      const Tile& out = k.tile(ti, tj);
      runtime.submit(
          TaskDesc{"build_k", {},
                   (static_cast<int>(nt - tj) << 1) + (ti == tj ? 1 : 0),
                   generator.tile_op_count(out.rows(), out.cols())},
          [&generator, &k, ti, tj, ts] {
            generator.compute(ti * ts, tj * ts, k.tile(ti, tj));
          });
    }
  }
  runtime.wait();
}

/// Generates the tiles of the rectangular cross-kernel `k` that
/// `owns(ti, tj)` selects, one "build_kx" task each; earlier tile columns
/// go first, since they feed the prediction row chains first.  Waits.
template <class Tiles, class Owns>
void generate_cross_tiles(Runtime& runtime,
                          const KernelTileGenerator& generator, Tiles& k,
                          Owns owns) {
  const std::size_t ts = k.tile_size();
  for (std::size_t tj = 0; tj < k.tile_cols(); ++tj) {
    for (std::size_t ti = 0; ti < k.tile_rows(); ++ti) {
      if (!owns(ti, tj)) continue;
      const Tile& out = k.tile(ti, tj);
      runtime.submit(
          TaskDesc{"build_kx", {}, static_cast<int>(k.tile_cols() - tj),
                   generator.tile_op_count(out.rows(), out.cols())},
          [&generator, &k, ti, tj, ts] {
            generator.compute(ti * ts, tj * ts, k.tile(ti, tj));
          });
    }
  }
  runtime.wait();
}

/// Builds the symmetric train x train kernel matrix K (FP32 tiles).
/// `confounders` may be empty (0 columns); otherwise its squared distances
/// are accumulated into the Gaussian exponent (ignored by the IBS kernel,
/// which is defined on alleles only).
SymmetricTileMatrix build_kernel_matrix(Runtime& runtime,
                                        const GenotypeMatrix& genotypes,
                                        const Matrix<float>& confounders,
                                        const BuildConfig& config);

/// Builds the rectangular test x train cross-kernel used by Predict.
TileMatrix build_cross_kernel(Runtime& runtime,
                              const GenotypeMatrix& test_genotypes,
                              const Matrix<float>& test_confounders,
                              const GenotypeMatrix& train_genotypes,
                              const Matrix<float>& train_confounders,
                              const BuildConfig& config);

/// Mixed-precision operation count of a Build (for the bench harness):
/// INT8 ops of the dosage SYRK + FP32 ops of the confounder part.
double build_op_count(std::size_t n_train, std::size_t n_snps,
                      std::size_t n_confounders);

}  // namespace kgwas
