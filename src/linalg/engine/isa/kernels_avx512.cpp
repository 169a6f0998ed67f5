/**
 * @file
 * AVX-512F kernel panels. This TU is compiled with `-mavx512f` (see
 * CMakeLists.txt) and must only be entered after runtime feature
 * detection — the engine guarantees that by resolving its kernel
 * table through isa::resolveIsa().
 *
 * Tails are handled with AVX-512 lane masks instead of scalar
 * remainder loops: one maskz load covers any n, which matters at
 * the DeiT head dim (d = 64 = 4 full vectors, but LeViT stages and
 * tests hit ragged widths). Same numerics policy as the AVX2 TU:
 * FMA accumulation in fixed lane order, polynomial expf, double row
 * sums — deterministic, ulp-close to the scalar oracle, not
 * bitwise-equal to it.
 */

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/engine/isa/isa.h"
#include "linalg/engine/isa/simd_math.h"

namespace vitcod::linalg::engine::isa {

namespace {

/** Lane mask selecting the low @p n of 16 lanes (n <= 16). */
inline __mmask16
tailMask(size_t n)
{
    return static_cast<__mmask16>((1u << n) - 1u);
}

/**
 * Upper 256 bits of @p v using only AVX-512F
 * (_mm512_extractf32x8_ps needs the DQ extension).
 */
inline __m256
upper256(__m512 v)
{
    return _mm512_castps512_ps256(
        _mm512_shuffle_f32x4(v, v, _MM_SHUFFLE(0, 0, 3, 2)));
}

/** dot(a, b) over n floats: 2x16 FMA lanes + masked tail. */
inline float
dot(const float *__restrict a, const float *__restrict b, size_t n)
{
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                               _mm512_loadu_ps(b + i), acc0);
        acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                               _mm512_loadu_ps(b + i + 16), acc1);
    }
    if (i + 16 <= n) {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                               _mm512_loadu_ps(b + i), acc0);
        i += 16;
    }
    if (i < n) {
        const __mmask16 m = tailMask(n - i);
        acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                               _mm512_maskz_loadu_ps(m, b + i), acc1);
    }
    // _mm512_reduce_add_ps is a fixed tree reduction: deterministic.
    return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

/**
 * Single-accumulator d=64 dot: four 16-lane chunks into one
 * register, reduced with the fixed _mm512_reduce_add_ps tree. Used
 * for both grouped and tail SDDMM entries so every entry rounds
 * identically however the nnz stream is chunked (CSR and CSC
 * traversals must stay bitwise-equal).
 */
inline float
dot64(const float *__restrict a, const float *__restrict b)
{
    __m512 acc = _mm512_mul_ps(_mm512_loadu_ps(a),
                               _mm512_loadu_ps(b));
    for (int c = 1; c < 4; ++c)
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + 16 * c),
                              _mm512_loadu_ps(b + 16 * c), acc);
    return _mm512_reduce_add_ps(acc);
}

/**
 * SDDMM inner loop specialized for d == 64: the stationary row
 * lives in four registers for the whole panel row, and groups of
 * four gathered rows run on independent accumulators to hide the
 * reduce latency.
 */
inline void
sddmmRow64(const float *__restrict stat, const Matrix &moving,
           const uint32_t *__restrict idx, uint32_t begin,
           uint32_t end, uint32_t nnz, float *__restrict values,
           float scale)
{
    __m512 sreg[4];
    for (int c = 0; c < 4; ++c)
        sreg[c] = _mm512_loadu_ps(stat + 16 * c);
    uint32_t i = begin;
    for (; i + 4 <= end; i += 4) {
        for (uint32_t p = i + 4; p < i + 8 && p < nnz; ++p)
            __builtin_prefetch(moving.rowData(idx[p]));
        const float *__restrict m0 = moving.rowData(idx[i]);
        const float *__restrict m1 = moving.rowData(idx[i + 1]);
        const float *__restrict m2 = moving.rowData(idx[i + 2]);
        const float *__restrict m3 = moving.rowData(idx[i + 3]);
        __m512 a0 = _mm512_mul_ps(sreg[0], _mm512_loadu_ps(m0));
        __m512 a1 = _mm512_mul_ps(sreg[0], _mm512_loadu_ps(m1));
        __m512 a2 = _mm512_mul_ps(sreg[0], _mm512_loadu_ps(m2));
        __m512 a3 = _mm512_mul_ps(sreg[0], _mm512_loadu_ps(m3));
        for (int c = 1; c < 4; ++c) {
            const __m512 s = sreg[c];
            a0 = _mm512_fmadd_ps(s, _mm512_loadu_ps(m0 + 16 * c), a0);
            a1 = _mm512_fmadd_ps(s, _mm512_loadu_ps(m1 + 16 * c), a1);
            a2 = _mm512_fmadd_ps(s, _mm512_loadu_ps(m2 + 16 * c), a2);
            a3 = _mm512_fmadd_ps(s, _mm512_loadu_ps(m3 + 16 * c), a3);
        }
        values[i] = scale * _mm512_reduce_add_ps(a0);
        values[i + 1] = scale * _mm512_reduce_add_ps(a1);
        values[i + 2] = scale * _mm512_reduce_add_ps(a2);
        values[i + 3] = scale * _mm512_reduce_add_ps(a3);
    }
    for (; i < end; ++i)
        values[i] = scale * dot64(stat, moving.rowData(idx[i]));
}

/** out[0..n) += s * v[0..n), masked tail. */
inline void
axpy(float *__restrict out, const float *__restrict v, float s,
     size_t n)
{
    const __m512 bs = _mm512_set1_ps(s);
    size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(
            out + i, _mm512_fmadd_ps(bs, _mm512_loadu_ps(v + i),
                                     _mm512_loadu_ps(out + i)));
    if (i < n) {
        const __mmask16 m = tailMask(n - i);
        _mm512_mask_storeu_ps(
            out + i, m,
            _mm512_fmadd_ps(bs, _mm512_maskz_loadu_ps(m, v + i),
                            _mm512_maskz_loadu_ps(m, out + i)));
    }
}

/**
 * One MR x 16*NV tile of C = ep(A*B) over the whole K. The MR*NV
 * accumulators start at +0 and take one FMA per k in ascending
 * order, so every element is exactly the in-order fma chain however
 * the panel is tiled. @p last masks the final vector's columns.
 */
template <size_t MR, size_t NV>
inline void
gemmTile(const float *__restrict a, size_t lda,
         const float *__restrict b, size_t ldb, float *__restrict c,
         size_t ldc, size_t K, __mmask16 last, Epilogue ep)
{
    __m512 acc[MR][NV] = {};
    for (size_t k = 0; k < K; ++k) {
        const float *__restrict bk = b + k * ldb;
        __m512 bv[NV];
        for (size_t v = 0; v + 1 < NV; ++v)
            bv[v] = _mm512_loadu_ps(bk + 16 * v);
        bv[NV - 1] = _mm512_maskz_loadu_ps(last, bk + 16 * (NV - 1));
        for (size_t i = 0; i < MR; ++i) {
            const __m512 ai = _mm512_set1_ps(a[i * lda + k]);
            for (size_t v = 0; v < NV; ++v)
                acc[i][v] = _mm512_fmadd_ps(ai, bv[v], acc[i][v]);
        }
    }
    // Fully unrolled so every acc index is a constant: left rolled
    // (the inlined GELU makes it too big for GCC's heuristics), it
    // keeps acc in memory and spills all 16 zmm on every k.
#pragma GCC unroll 16
    for (size_t i = 0; i < MR; ++i) {
        float *__restrict ci = c + i * ldc;
#pragma GCC unroll 16
        for (size_t v = 0; v < NV; ++v) {
            const __m512 r = ep == Epilogue::Gelu
                                 ? geluApprox512_ps(acc[i][v])
                                 : acc[i][v];
            if (v + 1 < NV)
                _mm512_storeu_ps(ci + 16 * v, r);
            else
                _mm512_mask_storeu_ps(ci + 16 * v, last, r);
        }
    }
}

/** gemmTile<MR, nv> for a runtime vector count nv in [1, 4]. */
template <size_t MR>
inline void
gemmTileN(size_t nv, const float *a, size_t lda, const float *b,
          size_t ldb, float *c, size_t ldc, size_t K, __mmask16 last,
          Epilogue ep)
{
    switch (nv) {
    case 1: return gemmTile<MR, 1>(a, lda, b, ldb, c, ldc, K, last, ep);
    case 2: return gemmTile<MR, 2>(a, lda, b, ldb, c, ldc, K, last, ep);
    case 3: return gemmTile<MR, 3>(a, lda, b, ldb, c, ldc, K, last, ep);
    default:
        return gemmTile<MR, 4>(a, lda, b, ldb, c, ldc, K, last, ep);
    }
}

/**
 * Register-blocked GEMM: 4x64 tiles in 16 zmm accumulators (1-row
 * tiles for leftover rows, masked 1-3 vector tiles for the column
 * tail). No B packing and no k/j blocking: column strips outermost,
 * so one K x 64 strip of B stays cache-resident while every row
 * tile of the panel streams past it.
 */
void
gemmPanelAvx512(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
                size_t r1, Epilogue ep)
{
    const size_t K = a.cols();
    const size_t N = b.cols();
    const size_t lda = K, ldb = N, ldc = N;
    for (size_t j = 0; j < N; j += 64) {
        const size_t cols = std::min<size_t>(64, N - j);
        const size_t nv = (cols + 15) / 16;
        const __mmask16 last = tailMask(cols - 16 * (nv - 1));
        const float *bj = b.rowData(0) + j;
        size_t i = r0;
        for (; i + 4 <= r1; i += 4)
            gemmTileN<4>(nv, a.rowData(i), lda, bj, ldb,
                         c.rowData(i) + j, ldc, K, last, ep);
        for (; i < r1; ++i)
            gemmTileN<1>(nv, a.rowData(i), lda, bj, ldb,
                         c.rowData(i) + j, ldc, K, last, ep);
    }
    // GCC inserts vzeroupper only from -O2 up; without it the -O1
    // sanitizer builds hand dirty upper halves back to baseline SSE
    // code, which then runs ~30x slower.
    _mm256_zeroupper();
}

void
sddmmCsrPanelAvx512(const Matrix &q, const Matrix &k,
                    const std::vector<uint32_t> &row_ptr,
                    const std::vector<uint32_t> &col_idx, float *values,
                    size_t r0, size_t r1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = row_ptr[r1];
    if (d == 64) {
        for (size_t r = r0; r < r1; ++r)
            sddmmRow64(q.rowData(r), k, col_idx.data(), row_ptr[r],
                       row_ptr[r + 1], nnz, values, scale);
        return;
    }
    for (size_t r = r0; r < r1; ++r) {
        const float *q_row = q.rowData(r);
        const uint32_t end = row_ptr[r + 1];
        for (uint32_t i = row_ptr[r]; i < end; ++i) {
            if (i + 4 < nnz)
                __builtin_prefetch(k.rowData(col_idx[i + 4]));
            values[i] = scale * dot(q_row, k.rowData(col_idx[i]), d);
        }
    }
}

void
sddmmCscPanelAvx512(const Matrix &q, const Matrix &k,
                    const std::vector<uint32_t> &col_ptr,
                    const std::vector<uint32_t> &row_idx, float *values,
                    size_t c0, size_t c1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = col_ptr[c1];
    if (d == 64) {
        // Same kernel with the roles swapped: K row stationary,
        // Q rows gathered. dot64 rounds identically to the grouped
        // path, so this stays bitwise-equal to the CSR traversal.
        for (size_t c = c0; c < c1; ++c)
            sddmmRow64(k.rowData(c), q, row_idx.data(), col_ptr[c],
                       col_ptr[c + 1], nnz, values, scale);
        return;
    }
    for (size_t c = c0; c < c1; ++c) {
        const float *k_row = k.rowData(c);
        const uint32_t end = col_ptr[c + 1];
        for (uint32_t i = col_ptr[c]; i < end; ++i) {
            if (i + 4 < nnz)
                __builtin_prefetch(q.rowData(row_idx[i + 4]));
            values[i] = scale * dot(q.rowData(row_idx[i]), k_row, d);
        }
    }
}

void
softmaxCsrPanelAvx512(const std::vector<uint32_t> &row_ptr,
                      float *values, size_t r0, size_t r1)
{
    const __m512 ninf =
        _mm512_set1_ps(-std::numeric_limits<float>::infinity());
    for (size_t r = r0; r < r1; ++r) {
        const uint32_t begin = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        if (begin == end)
            continue;
        const uint32_t n = end - begin;
        float *__restrict row = values + begin;

        // Max pass: masked lanes read as -inf so they never win.
        __m512 vmax = ninf;
        uint32_t i = 0;
        for (; i + 16 <= n; i += 16)
            vmax = _mm512_max_ps(vmax, _mm512_loadu_ps(row + i));
        if (i < n)
            vmax = _mm512_max_ps(
                vmax, _mm512_mask_loadu_ps(ninf, tailMask(n - i),
                                           row + i));
        const float max_v = _mm512_reduce_max_ps(vmax);

        // Exp pass; masked lanes are zeroed after exp so they add
        // nothing to the double-lane sum.
        const __m512 vm = _mm512_set1_ps(max_v);
        __m512d sum_pd = _mm512_setzero_pd();
        for (i = 0; i + 16 <= n; i += 16) {
            const __m512 e = expApprox512_ps(
                _mm512_sub_ps(_mm512_loadu_ps(row + i), vm));
            _mm512_storeu_ps(row + i, e);
            sum_pd = _mm512_add_pd(
                sum_pd,
                _mm512_cvtps_pd(_mm512_castps512_ps256(e)));
            sum_pd = _mm512_add_pd(
                sum_pd,
                _mm512_cvtps_pd(upper256(e)));
        }
        if (i < n) {
            const __mmask16 m = tailMask(n - i);
            const __m512 e = _mm512_maskz_mov_ps(
                m, expApprox512_ps(_mm512_sub_ps(
                       _mm512_maskz_loadu_ps(m, row + i), vm)));
            _mm512_mask_storeu_ps(row + i, m, e);
            sum_pd = _mm512_add_pd(
                sum_pd,
                _mm512_cvtps_pd(_mm512_castps512_ps256(e)));
            sum_pd = _mm512_add_pd(
                sum_pd,
                _mm512_cvtps_pd(upper256(e)));
        }
        const double sum = _mm512_reduce_add_pd(sum_pd);

        // Normalize.
        const auto inv = static_cast<float>(1.0 / sum);
        const __m512 vinv = _mm512_set1_ps(inv);
        for (i = 0; i + 16 <= n; i += 16)
            _mm512_storeu_ps(
                row + i,
                _mm512_mul_ps(_mm512_loadu_ps(row + i), vinv));
        if (i < n) {
            const __mmask16 m = tailMask(n - i);
            _mm512_mask_storeu_ps(
                row + i, m,
                _mm512_mul_ps(_mm512_maskz_loadu_ps(m, row + i),
                              vinv));
        }
    }
}

void
spmmPanelAvx512(const std::vector<uint32_t> &row_ptr,
                const std::vector<uint32_t> &col_idx,
                const float *values, const Matrix &v, Matrix &out,
                size_t r0, size_t r1)
{
    const size_t d = v.cols();
    if (d == 64) {
        // Register-resident output row: four 16-lane accumulators
        // hold the whole row across the nnz stream, so out_row is
        // touched exactly twice (load, store) per CSR row.
        for (size_t r = r0; r < r1; ++r) {
            float *__restrict out_row = out.rowData(r);
            __m512 acc[4];
            for (int c = 0; c < 4; ++c)
                acc[c] = _mm512_loadu_ps(out_row + 16 * c);
            const uint32_t end = row_ptr[r + 1];
            for (uint32_t i = row_ptr[r]; i < end; ++i) {
                if (i + 4 < end)
                    __builtin_prefetch(v.rowData(col_idx[i + 4]));
                const __m512 s = _mm512_set1_ps(values[i]);
                const float *__restrict vp = v.rowData(col_idx[i]);
                for (int c = 0; c < 4; ++c)
                    acc[c] = _mm512_fmadd_ps(
                        s, _mm512_loadu_ps(vp + 16 * c), acc[c]);
            }
            for (int c = 0; c < 4; ++c)
                _mm512_storeu_ps(out_row + 16 * c, acc[c]);
        }
        return;
    }
    for (size_t r = r0; r < r1; ++r) {
        float *__restrict out_row = out.rowData(r);
        uint32_t i = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        for (; i + 2 <= end; i += 2) {
            const __m512 s0 = _mm512_set1_ps(values[i]);
            const __m512 s1 = _mm512_set1_ps(values[i + 1]);
            const float *__restrict v0 = v.rowData(col_idx[i]);
            const float *__restrict v1 = v.rowData(col_idx[i + 1]);
            size_t j = 0;
            for (; j + 16 <= d; j += 16) {
                __m512 acc = _mm512_loadu_ps(out_row + j);
                acc = _mm512_fmadd_ps(s0, _mm512_loadu_ps(v0 + j),
                                      acc);
                acc = _mm512_fmadd_ps(s1, _mm512_loadu_ps(v1 + j),
                                      acc);
                _mm512_storeu_ps(out_row + j, acc);
            }
            if (j < d) {
                const __mmask16 m = tailMask(d - j);
                __m512 acc = _mm512_maskz_loadu_ps(m, out_row + j);
                acc = _mm512_fmadd_ps(
                    s0, _mm512_maskz_loadu_ps(m, v0 + j), acc);
                acc = _mm512_fmadd_ps(
                    s1, _mm512_maskz_loadu_ps(m, v1 + j), acc);
                _mm512_mask_storeu_ps(out_row + j, m, acc);
            }
        }
        for (; i < end; ++i)
            axpy(out_row, v.rowData(col_idx[i]), values[i], d);
    }
}

} // namespace

const IsaKernelTable &
avx512KernelTable()
{
    static const IsaKernelTable table = {
        IsaLevel::Avx512,       &gemmPanelAvx512,
        &sddmmCsrPanelAvx512,   &sddmmCscPanelAvx512,
        &softmaxCsrPanelAvx512, &spmmPanelAvx512,
    };
    return table;
}

} // namespace vitcod::linalg::engine::isa

#endif // __AVX512F__
