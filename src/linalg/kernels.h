/**
 * @file
 * Dense golden kernels: GEMM (plain and B-transposed), row softmax,
 * activations, transpose, permutation and matrix norms. These are the
 * functional references the accelerator models and tests check
 * against; they favor clarity over peak throughput but keep cache-
 * friendly loop orders.
 */

#ifndef VITCOD_LINALG_KERNELS_H
#define VITCOD_LINALG_KERNELS_H

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace vitcod::linalg {

/** C = A * B. @pre a.cols == b.rows. */
Matrix gemm(const Matrix &a, const Matrix &b);

/**
 * C = A * B into a caller-owned buffer (reshaped in place, capacity
 * reused). Identical arithmetic to gemm(); what the engine's
 * reference dispatch uses so arena-backed callers stay
 * allocation-free in steady state.
 */
void gemmInto(const Matrix &a, const Matrix &b, Matrix &c);

/** C = A * B^T; the attention score kernel S = Q * K^T. */
Matrix gemmTransB(const Matrix &a, const Matrix &b);

/** C = alpha * A + beta * B elementwise. @pre shapes match. */
Matrix axpby(float alpha, const Matrix &a, float beta, const Matrix &b);

/** Transpose. */
Matrix transpose(const Matrix &a);

/** Numerically-stable softmax applied to each row independently. */
Matrix softmaxRows(const Matrix &a);

/**
 * Row-wise LayerNorm (mean/variance accumulated in double, eps
 * 1e-6) into a caller-owned buffer. The single definition both
 * ReferenceBlock and ModelExecutor normalize with, so the
 * differential tests compare attention/MLP numerics, never two
 * drifting LayerNorm copies.
 * @pre gamma and beta have x.cols() entries.
 */
void layerNormRowsInto(const Matrix &x,
                       const std::vector<float> &gamma,
                       const std::vector<float> &beta, Matrix &out);

/** In-place ReLU. */
void reluInPlace(Matrix &a);

/**
 * GELU of one value, tanh approximation (as used by ViT MLPs)
 * evaluated in double: the oracle every GELU is measured against.
 */
float gelu(float x);

/** In-place gelu() of every element. */
void geluInPlace(Matrix &a);

/** Scale all elements in place. */
void scaleInPlace(Matrix &a, float s);

/** Permute rows: out.row(i) = a.row(perm[i]). */
Matrix permuteRows(const Matrix &a, const std::vector<uint32_t> &perm);

/** Frobenius norm. */
double frobeniusNorm(const Matrix &a);

/** max_ij |a - b|. @pre shapes match. */
double maxAbsDiff(const Matrix &a, const Matrix &b);

/** Mean squared difference. @pre shapes match. */
double meanSquaredError(const Matrix &a, const Matrix &b);

} // namespace vitcod::linalg

#endif // VITCOD_LINALG_KERNELS_H
