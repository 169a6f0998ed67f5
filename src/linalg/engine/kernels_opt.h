/**
 * @file
 * Optimized kernel bodies of the execution engine: branch-light,
 * multi-accumulator loops over raw CSR/CSC arrays and
 * row-major dense panels. Every function here works on a half-open
 * row (or column) range so the KernelEngine can carve work into
 * independent panels for ThreadPool::parallelFor — a panel writes
 * only its own output slice, which is what makes parallel runs
 * bitwise deterministic.
 *
 * Numerics: the GEMM panel is the reference i-k-j loop (bitwise the
 * oracle); dot products accumulate in four independent float lanes
 * (reduced at the end), softmax exponentiates in double like the
 * scalar reference. Differential tests pin the optimized results to
 * the golden kernels within a few hundred ulps.
 */

#ifndef VITCOD_LINALG_ENGINE_KERNELS_OPT_H
#define VITCOD_LINALG_ENGINE_KERNELS_OPT_H

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "sparse/formats.h"

namespace vitcod::linalg::engine {

/** Elementwise op a GEMM panel applies to C before storing it. */
enum class Epilogue
{
    None,
    Gelu, //!< tanh-form GELU, as linalg::geluInPlace
};

/**
 * Dense C = A*B over C rows [r0, r1), overwriting them (no zeroed
 * C needed), then @p ep on those rows. The reference i-k-j loop
 * with the oracle GELU: bitwise linalg::gemmInto (+ geluInPlace).
 */
void gemmPanel(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
               size_t r1, Epilogue ep);

/**
 * SDDMM over CSR rows [r0, r1): values[i] = scale * dot(q.row(r),
 * k.row(col_idx[i])) for every stored nonzero of those rows.
 * Row-stationary: one Q row stays hot while its mask columns stream.
 */
void sddmmCsrPanel(const Matrix &q, const Matrix &k,
                   const std::vector<uint32_t> &row_ptr,
                   const std::vector<uint32_t> &col_idx, float *values,
                   size_t r0, size_t r1, float scale);

/**
 * SDDMM over CSC columns [c0, c1): the K-stationary walk of the
 * ViTCoD sparser engine (paper Sec. V-B1) — one K row is reused
 * across every query attending to it, which is the prefetch-friendly
 * order when columns are sparse and rows are scattered.
 */
void sddmmCscPanel(const Matrix &q, const Matrix &k,
                   const std::vector<uint32_t> &col_ptr,
                   const std::vector<uint32_t> &row_idx, float *values,
                   size_t c0, size_t c1, float scale);

/**
 * Fused masked softmax over CSR rows [r0, r1), in place: single
 * max pass, single exp pass storing the exponentials, one normalize
 * multiply — no COO round-trip and no second exp.
 */
void softmaxCsrPanel(const std::vector<uint32_t> &row_ptr, float *values,
                     size_t r0, size_t r1);

/** SpMM out.rows [r0, r1) = S[r0:r1, :] * V, accumulation-friendly. */
void spmmPanel(const std::vector<uint32_t> &row_ptr,
               const std::vector<uint32_t> &col_idx, const float *values,
               const Matrix &v, Matrix &out, size_t r0, size_t r1);

/**
 * CSR structure of @p mask without values: bulk two-pass scan
 * (count, fill), no per-nonzero callback. Returns {row_ptr, col_idx}.
 */
void maskToCsrStructure(const sparse::BitMask &mask,
                        std::vector<uint32_t> &row_ptr,
                        std::vector<uint32_t> &col_idx);

/**
 * CSC structure from an existing CSR structure in O(nnz) (no second
 * mask scan): count column occupancy, prefix-sum, fill. Row indices
 * within each column come out ascending because CSR rows are walked
 * in order.
 */
void csrToCscStructure(size_t rows, size_t cols,
                       const std::vector<uint32_t> &row_ptr,
                       const std::vector<uint32_t> &col_idx,
                       std::vector<uint32_t> &col_ptr,
                       std::vector<uint32_t> &row_idx);

/**
 * Scatter CSC-ordered values into CSR order for the same structure:
 * csr_values[pos] = csc_values[i] with pos the CSR slot of nonzero i.
 * O(nnz) counting pass; lets the CSC SDDMM feed the CSR softmax/SpMM.
 */
void cscValuesToCsr(size_t rows, const std::vector<uint32_t> &col_ptr,
                    const std::vector<uint32_t> &row_idx,
                    const std::vector<float> &csc_values,
                    const std::vector<uint32_t> &csr_row_ptr,
                    std::vector<float> &csr_values);

} // namespace vitcod::linalg::engine

#endif // VITCOD_LINALG_ENGINE_KERNELS_OPT_H
