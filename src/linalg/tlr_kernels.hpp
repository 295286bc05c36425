// TLR-aware tile kernels for the tiled Cholesky (paper Section VIII).
//
// These are the factored-form counterparts of linalg/tile_kernels.hpp.
// The primary API operates on TileSlots (tile/tile_slot.hpp): each kernel
// dispatches per slot on is_low_rank at *execution* time (a tile's
// representation can change mid-factorization when a Schur update
// densifies it), falling back to the dense kernel when every operand is
// dense — so a matrix with no compressed slots runs the dense pipeline
// bit for bit.  Because the cores take slots rather than a matrix, the
// shared-memory path (slots of a SymmetricTileMatrix) and the distributed
// path (owned slots and remote-cache slots of a DistSymmetricTileMatrix)
// run the exact same code, which is what makes the dist TLR factorization
// bitwise identical to the shared-memory one.
//
// The factored algebra (HiCMA-style, U m x r / V n x r, tile = U * V^T):
//
//   TRSM   B <- B * L^-T      =  U * (L^-1 V)^T     — only V is touched;
//   SYRK   C <- C - A * A^T   =  C - U (V^T V) U^T  — small r x r core;
//   GEMM   C <- C - A * B^T, with A * B^T built in factored form:
//            LR x LR:     Ua (Va^T Vb) Ub^T, folding the core into the
//                         lower-rank side;
//            LR x dense:  Ua * (B Va)^T;
//            dense x LR:  (A Vb) * Ub^T;
//            dense x dense: the pair (A, B) is itself a rank-k factored
//                         form of the product — no dense m x n interim.
//   When C is itself low-rank, the update stacks factor columns
//   [Cu | -Pu][Cv | Pv]^T and re-compresses at the accumulation tolerance
//   (recompress_product: thin QR + SVD of the small core).  If the
//   re-compressed rank crosses the admissibility threshold
//   rank * (m + n) > max_rank_fraction * m * n, the tile is densified —
//   the OLD factors reconstruct exactly and the update applies densely,
//   so densification never truncates.
//
// Skinny factor products run through gemm<float>, which routes into the
// packed GEMM engine — the same microkernels the dense tiles use.
#pragma once

#include <cstddef>

#include "tile/tile_slot.hpp"

namespace kgwas {

/// Admissibility crossover: the factored form only pays while
/// rank * (m + n) <= max_rank_fraction * m * n.
bool tlr_rank_admissible(std::size_t rank, std::size_t m, std::size_t n,
                         double max_rank_fraction);

/// TRSM of slot `b` against the dense diagonal factor `lkk`.
void tlr_trsm(const Tile& lkk, TileSlot& b);

/// SYRK update of the dense diagonal tile `c` by slot `ajk`.
void tlr_syrk(const TileSlot& ajk, Tile& c);

/// GEMM update of slot `cij` by slots `aik` and `ajk`.  May compress,
/// re-compress or densify `cij` in place; low-rank accumulation
/// re-compresses at `tol` and densifies past `max_rank_fraction`.
void tlr_gemm(const TileSlot& aik, const TileSlot& ajk, TileSlot& cij,
              double tol, double max_rank_fraction);

/// RHS GEMM update for the tiled solve: X_i <- X_i - op(L) * X_k, reading
/// factor slot `l` in whichever representation it is held.
void tlr_gemm_rhs(const TileSlot& l, bool transpose, const float* xk,
                  std::size_t ldxk, float* xi, std::size_t ldxi,
                  std::size_t ncols);

}  // namespace kgwas
