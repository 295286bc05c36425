// Tile-level compute kernels for the mixed-precision tiled Cholesky.
//
// Numerical model (identical to the paper's GPU pipeline):
//  * a tile's *storage* precision is its operand precision — reading an
//    FP16/FP8 tile yields exactly the quantized values;
//  * every kernel computes in FP32 (tensor-core accumulate width);
//  * results are re-encoded into the output tile's storage precision.
//
// The GEMM/SYRK read operands are never decoded into full-tile FP32
// scratch: the packed engine packs straight from tile storage bytes
// (decode-on-pack).  Only the read-modify-write C tile still needs one
// FP32 decode.  The encode step is where narrowing rounding error
// enters — exactly once per tile write, as on hardware.
#pragma once

#include "mpblas/kernels.hpp"
#include "tile/tile.hpp"

namespace kgwas {

/// Storage-precision engine view of a read-only tile operand
/// (decode-on-pack; ld = rows, column-major tile payload).
mpblas::kernels::OperandView tile_operand_view(const Tile& t, Trans trans);

/// Ridge shift of a diagonal tile: A <- A + alpha * I (decode, add,
/// re-encode at the tile's storage precision).
void tile_add_diagonal(Tile& a, float alpha);

/// POTRF on a diagonal tile: A <- chol(A), lower.  Throws NumericalError
/// (with the failing global column if `global_offset` is given) when the
/// tile is not positive definite.
void tile_potrf(Tile& a, std::size_t global_offset = 0);

/// TRSM: B <- B * L^-T with L the (already factored) diagonal tile.
void tile_trsm(const Tile& l, Tile& b);

/// SYRK update: C <- C - A * A^T on the lower triangle of C only.  The
/// strict upper triangle keeps whatever it held: nothing reads it before
/// tile_potrf zeroes it.
void tile_syrk(const Tile& a, Tile& c);

/// GEMM update: C <- C - A * B^T.
void tile_gemm(const Tile& a, const Tile& b, Tile& c);

/// TRSM against a panel of right-hand sides held as a dense FP32 block:
/// X <- L^-1 X (forward) or L^-T X (backward); used by the tiled solve.
void tile_trsm_rhs(const Tile& l, bool transpose, float* x, std::size_t ldx,
                   std::size_t ncols);

/// RHS GEMM update: X_i <- X_i - op(L_ik) * X_k for the tiled solve.
/// `transpose` selects L^T (backward sweep).
void tile_gemm_rhs(const Tile& l, bool transpose, const float* xk,
                   std::size_t ldxk, float* xi, std::size_t ldxi,
                   std::size_t ncols);

}  // namespace kgwas
