// Mixed-precision kernels emulating the GPU tensor-core contracts the
// paper relies on:
//
//  * `syrk_i8_i32` / `gemm_i8_i32` — the cublasGemmEx AB8I_C32I_OP32I
//    variant: INT8 operands, INT32 accumulation, run on the packed
//    engine's INT8 path (AVX512-VNNI where the host has it).  Results are
//    exact whenever the true result fits in i32, so for SNP dosage data
//    (values in {0,1,2}) the Euclidean-distance SYRK trick is *bit-exact*
//    — the key reason the paper's Build phase preserves accuracy at INT8.
//    The scalar loops survive as the test oracle `kgwas::reference::`.
//
//  * `gemm_tc` — cublasLtMatmul with FP16/BF16/FP8/FP4
//    operands and FP32 compute type: operands are rounded to the storage
//    format, then all products/accumulations run in FP32.  This is the
//    numerical model of a tensor-core MMA with a wide accumulator and is
//    what the MxP Cholesky uses for its low-precision tiles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpblas/types.hpp"
#include "precision/precision.hpp"

namespace kgwas {

/// C(int32, n x n) <- alpha * A * A^T + beta * C with A int8 n x k
/// (trans = NoTrans) or alpha * A^T * A with A int8 k x n (trans = Trans).
/// Only the `uplo` triangle of C is referenced; micro tiles outside it
/// are skipped.  All arithmetic wraps modulo 2^32, so each element is
/// exact whenever its true value fits in i32 (any k < 2^31 / 128^2 with
/// arbitrary int8 data; SNP dosages give 4 * k).
void syrk_i8_i32(Uplo uplo, Trans trans, std::size_t n, std::size_t k,
                 std::int32_t alpha, const std::int8_t* a, std::size_t lda,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc);

/// C(int32, m x n) <- alpha * op(A) * op(B) + beta * C, INT8 operands;
/// exact under the same bound as syrk_i8_i32.
void gemm_i8_i32(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, std::int32_t alpha, const std::int8_t* a,
                 std::size_t lda, const std::int8_t* b, std::size_t ldb,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc);

namespace reference {

/// The scalar loops: same contracts as the engine entry points above
/// (the callers keep every partial sum inside i32).  The oracle the
/// INT8 path is tested and benchmarked against.
void syrk_i8_i32(Uplo uplo, Trans trans, std::size_t n, std::size_t k,
                 std::int32_t alpha, const std::int8_t* a, std::size_t lda,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc);
void gemm_i8_i32(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, std::int32_t alpha, const std::int8_t* a,
                 std::size_t lda, const std::int8_t* b, std::size_t ldb,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc);

}  // namespace reference

/// Tensor-core GEMM emulation: operands of op(A) (m x k) and op(B) (k x n)
/// are rounded to `operand_precision` storage, products and accumulation
/// run in FP32, and C stays FP32.  With operand_precision == kFp32 this is
/// plain SGEMM (no extra rounding).
void gemm_tc(Precision operand_precision, Trans trans_a, Trans trans_b,
             std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, std::size_t lda, const float* b, std::size_t ldb,
             float beta, float* c, std::size_t ldc);

/// Flop/ops accounting helpers used by the benchmark harness.
double gemm_op_count(std::size_t m, std::size_t n, std::size_t k);
double syrk_op_count(std::size_t n, std::size_t k);
double potrf_op_count(std::size_t n);
double trsm_op_count(std::size_t m, std::size_t n);

}  // namespace kgwas
