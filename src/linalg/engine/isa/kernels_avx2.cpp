/**
 * @file
 * AVX2+FMA kernel panels. This TU is compiled with `-mavx2 -mfma`
 * (see CMakeLists.txt) and must only be entered after runtime
 * feature detection — the engine guarantees that by resolving its
 * kernel table through isa::resolveIsa().
 *
 * Numerics: dot products use two independent 8-lane FMA
 * accumulators reduced in a fixed order, softmax uses the shared
 * polynomial expf (simd_math.h) with the row sum accumulated in
 * 4-lane double. Results are deterministic for a given (input,
 * panel split) and land within the differential ulp budget of the
 * scalar oracle; they are NOT bitwise identical to the scalar tier
 * (FMA contracts the multiply-add rounding).
 */

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/engine/isa/isa.h"
#include "linalg/engine/isa/simd_math.h"

namespace vitcod::linalg::engine::isa {

namespace {

/** Fixed-order horizontal sum of one 8-lane register. */
inline float
hsum256(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_movehdup_ps(s));
    return _mm_cvtss_f32(s);
}

/** dot(a, b) over n floats: 2x8 FMA lanes + scalar tail. */
inline float
dot(const float *__restrict a, const float *__restrict b, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    if (i + 8 <= n) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        i += 8;
    }
    float s = hsum256(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

/**
 * Lane sums of four 8-lane accumulators, one per output slot:
 * result[j] = ((aj0+aj1)+(aj2+aj3)) + ((aj4+aj5)+(aj6+aj7)).
 */
inline __m128
hsum4x256(__m256 a, __m256 b, __m256 c, __m256 d)
{
    const __m256 ab = _mm256_hadd_ps(a, b);
    const __m256 cd = _mm256_hadd_ps(c, d);
    const __m256 q = _mm256_hadd_ps(ab, cd);
    return _mm_add_ps(_mm256_castps256_ps128(q),
                      _mm256_extractf128_ps(q, 1));
}

/**
 * Single-accumulator d=64 dot whose reduce order matches one slot
 * of hsum4x256, so grouped and tail SDDMM entries round
 * identically (the CSR/CSC paths must stay bitwise-equal however
 * the nnz stream is chunked).
 */
inline float
dot64(const float *__restrict a, const float *__restrict b)
{
    __m256 acc = _mm256_mul_ps(_mm256_loadu_ps(a),
                               _mm256_loadu_ps(b));
    for (int c = 1; c < 8; ++c)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + 8 * c),
                              _mm256_loadu_ps(b + 8 * c), acc);
    const __m128 lo = _mm256_castps256_ps128(acc);
    const __m128 hi = _mm256_extractf128_ps(acc, 1);
    __m128 plo = _mm_hadd_ps(lo, lo);
    plo = _mm_hadd_ps(plo, plo);
    __m128 phi = _mm_hadd_ps(hi, hi);
    phi = _mm_hadd_ps(phi, phi);
    return _mm_cvtss_f32(_mm_add_ss(plo, phi));
}

/**
 * SDDMM inner loop specialized for d == 64 (the DeiT/LeViT head
 * dim): the stationary row lives in registers for the whole panel
 * row, and groups of four gathered rows share one transposing
 * horizontal reduce — quartering the hsum cost and halving load
 * traffic vs. the generic dot().
 */
inline void
sddmmRow64(const float *__restrict stat, const Matrix &moving,
           const uint32_t *__restrict idx, uint32_t begin,
           uint32_t end, uint32_t nnz, float *__restrict values,
           float scale)
{
    __m256 sreg[8];
    for (int c = 0; c < 8; ++c)
        sreg[c] = _mm256_loadu_ps(stat + 8 * c);
    const __m128 vscale = _mm_set1_ps(scale);
    uint32_t i = begin;
    for (; i + 4 <= end; i += 4) {
        // Each gathered row spans four cache lines; touch all four
        // for every row in the next group so the loads below hit.
        for (uint32_t p = i + 4; p < i + 8 && p < nnz; ++p) {
            const float *pf = moving.rowData(idx[p]);
            __builtin_prefetch(pf);
            __builtin_prefetch(pf + 16);
            __builtin_prefetch(pf + 32);
            __builtin_prefetch(pf + 48);
        }
        const float *__restrict m0 = moving.rowData(idx[i]);
        const float *__restrict m1 = moving.rowData(idx[i + 1]);
        const float *__restrict m2 = moving.rowData(idx[i + 2]);
        const float *__restrict m3 = moving.rowData(idx[i + 3]);
        __m256 a0 = _mm256_mul_ps(sreg[0], _mm256_loadu_ps(m0));
        __m256 a1 = _mm256_mul_ps(sreg[0], _mm256_loadu_ps(m1));
        __m256 a2 = _mm256_mul_ps(sreg[0], _mm256_loadu_ps(m2));
        __m256 a3 = _mm256_mul_ps(sreg[0], _mm256_loadu_ps(m3));
        for (int c = 1; c < 8; ++c) {
            const __m256 s = sreg[c];
            a0 = _mm256_fmadd_ps(s, _mm256_loadu_ps(m0 + 8 * c), a0);
            a1 = _mm256_fmadd_ps(s, _mm256_loadu_ps(m1 + 8 * c), a1);
            a2 = _mm256_fmadd_ps(s, _mm256_loadu_ps(m2 + 8 * c), a2);
            a3 = _mm256_fmadd_ps(s, _mm256_loadu_ps(m3 + 8 * c), a3);
        }
        _mm_storeu_ps(values + i,
                      _mm_mul_ps(hsum4x256(a0, a1, a2, a3), vscale));
    }
    for (; i < end; ++i)
        values[i] = scale * dot64(stat, moving.rowData(idx[i]));
}

/** out[0..n) += s * v[0..n). */
inline void
axpy(float *__restrict out, const float *__restrict v, float s,
     size_t n)
{
    const __m256 bs = _mm256_set1_ps(s);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            out + i, _mm256_fmadd_ps(bs, _mm256_loadu_ps(v + i),
                                     _mm256_loadu_ps(out + i)));
    for (; i < n; ++i)
        out[i] += s * v[i];
}

/** Lane mask selecting the low @p n of 8 lanes (n <= 8). */
inline __m256i
tailMask256(size_t n)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** GEMM tile rows (MR) and 8-lane column vectors (NV): 12 ymm
 *  accumulators + NV B vectors + one broadcast stay in registers. */
constexpr size_t kTileRows = 4;
constexpr size_t kTileVecs = 3;

/**
 * One MR x 8*NV tile of C = ep(A*B) over the whole K. The MR*NV
 * accumulators start at +0 and take one FMA per k in ascending
 * order, so every element is exactly the in-order fma chain however
 * the panel is tiled. TAIL masks the final vector's columns with
 * @p last (vmaskmov, so full tiles keep plain loads).
 */
template <size_t MR, size_t NV, bool TAIL>
inline void
gemmTile(const float *__restrict a, size_t lda,
         const float *__restrict b, size_t ldb, float *__restrict c,
         size_t ldc, size_t K, __m256i last, Epilogue ep)
{
    __m256 acc[MR][NV] = {};
    for (size_t k = 0; k < K; ++k) {
        const float *__restrict bk = b + k * ldb;
        __m256 bv[NV];
        for (size_t v = 0; v < NV; ++v)
            bv[v] = TAIL && v + 1 == NV
                        ? _mm256_maskload_ps(bk + 8 * v, last)
                        : _mm256_loadu_ps(bk + 8 * v);
        for (size_t i = 0; i < MR; ++i) {
            const __m256 ai = _mm256_broadcast_ss(a + i * lda + k);
            for (size_t v = 0; v < NV; ++v)
                acc[i][v] = _mm256_fmadd_ps(ai, bv[v], acc[i][v]);
        }
    }
    // Fully unrolled so every acc index is a constant (see the
    // AVX-512 tile: rolled, GCC spills acc on every k).
#pragma GCC unroll 16
    for (size_t i = 0; i < MR; ++i) {
        float *__restrict ci = c + i * ldc;
#pragma GCC unroll 16
        for (size_t v = 0; v < NV; ++v) {
            const __m256 r = ep == Epilogue::Gelu
                                 ? geluApprox256_ps(acc[i][v])
                                 : acc[i][v];
            if (TAIL && v + 1 == NV)
                _mm256_maskstore_ps(ci + 8 * v, last, r);
            else
                _mm256_storeu_ps(ci + 8 * v, r);
        }
    }
}

/** gemmTile<MR, nv, ragged> for runtime nv in [1, kTileVecs]. */
template <size_t MR>
inline void
gemmTileN(size_t nv, bool ragged, const float *a, size_t lda,
          const float *b, size_t ldb, float *c, size_t ldc, size_t K,
          __m256i last, Epilogue ep)
{
    static_assert(kTileVecs == 3, "one case per (nv, ragged) below");
    switch (nv * 2 + ragged) {
    case 2:
        return gemmTile<MR, 1, false>(a, lda, b, ldb, c, ldc, K, last, ep);
    case 3:
        return gemmTile<MR, 1, true>(a, lda, b, ldb, c, ldc, K, last, ep);
    case 4:
        return gemmTile<MR, 2, false>(a, lda, b, ldb, c, ldc, K, last, ep);
    case 5:
        return gemmTile<MR, 2, true>(a, lda, b, ldb, c, ldc, K, last, ep);
    case 6:
        return gemmTile<MR, 3, false>(a, lda, b, ldb, c, ldc, K, last, ep);
    default:
        return gemmTile<MR, 3, true>(a, lda, b, ldb, c, ldc, K, last, ep);
    }
}

/**
 * Register-blocked GEMM: 4x24 tiles in 12 ymm accumulators (1-row
 * tiles for leftover rows, 1-3 vector tiles with a masked last
 * vector for the column tail). No B packing and no k/j blocking:
 * column strips outermost, so one K x 24 strip of B stays
 * cache-resident while every row tile of the panel streams past it.
 */
void
gemmPanelAvx2(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
              size_t r1, Epilogue ep)
{
    constexpr size_t kCols = 8 * kTileVecs;
    const size_t K = a.cols();
    const size_t N = b.cols();
    const size_t lda = K, ldb = N, ldc = N;
    for (size_t j = 0; j < N; j += kCols) {
        const size_t cols = std::min(kCols, N - j);
        const size_t nv = (cols + 7) / 8;
        const size_t tail = cols - 8 * (nv - 1);
        const __m256i last = tailMask256(tail);
        const float *bj = b.rowData(0) + j;
        size_t i = r0;
        for (; i + kTileRows <= r1; i += kTileRows)
            gemmTileN<kTileRows>(nv, tail != 8, a.rowData(i), lda, bj,
                                 ldb, c.rowData(i) + j, ldc, K, last,
                                 ep);
        for (; i < r1; ++i)
            gemmTileN<1>(nv, tail != 8, a.rowData(i), lda, bj, ldb,
                         c.rowData(i) + j, ldc, K, last, ep);
    }
    // GCC inserts vzeroupper only from -O2 up; without it the -O1
    // sanitizer builds hand dirty upper halves back to baseline SSE
    // code, which then runs ~30x slower.
    _mm256_zeroupper();
}

void
sddmmCsrPanelAvx2(const Matrix &q, const Matrix &k,
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
sddmmCscPanelAvx2(const Matrix &q, const Matrix &k,
                  const std::vector<uint32_t> &col_ptr,
                  const std::vector<uint32_t> &row_idx, float *values,
                  size_t c0, size_t c1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = col_ptr[c1];
    if (d == 64) {
        // Same kernel with the roles swapped: K row stationary,
        // Q rows gathered. dot64/hsum4x256 round identically, so
        // this stays bitwise-equal to the CSR traversal.
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
softmaxCsrPanelAvx2(const std::vector<uint32_t> &row_ptr,
                    float *values, size_t r0, size_t r1)
{
    for (size_t r = r0; r < r1; ++r) {
        const uint32_t begin = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        if (begin == end)
            continue;
        const uint32_t n = end - begin;
        float *__restrict row = values + begin;
        if (n < 8) {
            // Tiny rows (98%+ sparsity): scalar, libm exp.
            float max_v = row[0];
            for (uint32_t j = 1; j < n; ++j)
                max_v = std::max(max_v, row[j]);
            double sum = 0.0;
            for (uint32_t j = 0; j < n; ++j) {
                const float e = std::exp(row[j] - max_v);
                row[j] = e;
                sum += e;
            }
            const auto inv = static_cast<float>(1.0 / sum);
            for (uint32_t j = 0; j < n; ++j)
                row[j] *= inv;
            continue;
        }

        // n >= 8: every pass handles the sub-width remainder with an
        // overlapping group at row + n - 8 — no staging buffer, no
        // libm tail. The overlapped lanes recompute bit-identical
        // results, so only the sum needs a lane mask (keep the last
        // rem lanes exactly once).
        const uint32_t rem = n & 7u;

        // Max pass (duplicated lanes cannot change a max).
        __m256 vmax = _mm256_loadu_ps(row);
        uint32_t i = 8;
        for (; i + 8 <= n; i += 8)
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + i));
        if (rem)
            vmax =
                _mm256_max_ps(vmax, _mm256_loadu_ps(row + n - 8));
        __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                              _mm256_extractf128_ps(vmax, 1));
        m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        m = _mm_max_ss(m, _mm_movehdup_ps(m));
        const float max_v = _mm_cvtss_f32(m);

        // Exp pass storing the exponentials; the running sum stays
        // double (4 lanes, fixed reduce order) so normalization
        // tracks the scalar oracle to the last few ulps. The tail
        // group is computed from the original values up front and
        // stored after the main loop (its overlapped lanes rewrite
        // the main loop's bits unchanged).
        const __m256 vm = _mm256_set1_ps(max_v);
        __m256d sum_pd = _mm256_setzero_pd();
        __m256 e_tail = _mm256_setzero_ps();
        if (rem)
            e_tail = expApprox256_ps(
                _mm256_sub_ps(_mm256_loadu_ps(row + n - 8), vm));
        for (i = 0; i + 8 <= n; i += 8) {
            const __m256 e = expApprox256_ps(
                _mm256_sub_ps(_mm256_loadu_ps(row + i), vm));
            _mm256_storeu_ps(row + i, e);
            sum_pd = _mm256_add_pd(
                sum_pd, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
            sum_pd = _mm256_add_pd(
                sum_pd, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
        }
        if (rem) {
            _mm256_storeu_ps(row + n - 8, e_tail);
            // Lane j of the tail group is new iff j >= 8 - rem.
            static const int32_t keep[16] = {0,  0,  0,  0,  0,  0,
                                             0,  0,  -1, -1, -1, -1,
                                             -1, -1, -1, -1};
            const __m256 masked = _mm256_and_ps(
                e_tail, _mm256_castsi256_ps(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(
                                keep + rem))));
            sum_pd = _mm256_add_pd(
                sum_pd,
                _mm256_cvtps_pd(_mm256_castps256_ps128(masked)));
            sum_pd = _mm256_add_pd(
                sum_pd,
                _mm256_cvtps_pd(_mm256_extractf128_ps(masked, 1)));
        }
        const __m128d lo = _mm256_castpd256_pd128(sum_pd);
        const __m128d hi = _mm256_extractf128_pd(sum_pd, 1);
        __m128d s2 = _mm_add_pd(lo, hi);
        s2 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
        const double sum = _mm_cvtsd_f64(s2);

        // Normalize (tail group loaded before the main loop touches
        // its overlapped lanes, stored after — same bits either way).
        const auto inv = static_cast<float>(1.0 / sum);
        const __m256 vinv = _mm256_set1_ps(inv);
        __m256 t_norm = _mm256_setzero_ps();
        if (rem)
            t_norm = _mm256_loadu_ps(row + n - 8);
        for (i = 0; i + 8 <= n; i += 8)
            _mm256_storeu_ps(
                row + i,
                _mm256_mul_ps(_mm256_loadu_ps(row + i), vinv));
        if (rem)
            _mm256_storeu_ps(row + n - 8,
                             _mm256_mul_ps(t_norm, vinv));
    }
}

void
spmmPanelAvx2(const std::vector<uint32_t> &row_ptr,
              const std::vector<uint32_t> &col_idx, const float *values,
              const Matrix &v, Matrix &out, size_t r0, size_t r1)
{
    const size_t d = v.cols();
    if (d == 64) {
        // Register-resident output row: eight 8-lane accumulators
        // hold the whole row across the nnz stream, so out_row is
        // touched exactly twice (load, store) per CSR row.
        for (size_t r = r0; r < r1; ++r) {
            float *__restrict out_row = out.rowData(r);
            __m256 acc[8];
            for (int c = 0; c < 8; ++c)
                acc[c] = _mm256_loadu_ps(out_row + 8 * c);
            const uint32_t end = row_ptr[r + 1];
            for (uint32_t i = row_ptr[r]; i < end; ++i) {
                // Gathered V rows miss L1; prefetch the full row
                // (four cache lines) 8 iterations ahead.
                if (i + 8 < end) {
                    const float *pf = v.rowData(col_idx[i + 8]);
                    __builtin_prefetch(pf);
                    __builtin_prefetch(pf + 16);
                    __builtin_prefetch(pf + 32);
                    __builtin_prefetch(pf + 48);
                }
                const __m256 s = _mm256_set1_ps(values[i]);
                const float *__restrict vp = v.rowData(col_idx[i]);
                for (int c = 0; c < 8; ++c)
                    acc[c] = _mm256_fmadd_ps(
                        s, _mm256_loadu_ps(vp + 8 * c), acc[c]);
            }
            for (int c = 0; c < 8; ++c)
                _mm256_storeu_ps(out_row + 8 * c, acc[c]);
        }
        return;
    }
    for (size_t r = r0; r < r1; ++r) {
        float *__restrict out_row = out.rowData(r);
        uint32_t i = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        // Paired update halves the out_row load/store traffic.
        for (; i + 2 <= end; i += 2) {
            const __m256 s0 = _mm256_set1_ps(values[i]);
            const __m256 s1 = _mm256_set1_ps(values[i + 1]);
            const float *__restrict v0 = v.rowData(col_idx[i]);
            const float *__restrict v1 = v.rowData(col_idx[i + 1]);
            size_t j = 0;
            for (; j + 8 <= d; j += 8) {
                __m256 acc = _mm256_loadu_ps(out_row + j);
                acc = _mm256_fmadd_ps(s0, _mm256_loadu_ps(v0 + j),
                                      acc);
                acc = _mm256_fmadd_ps(s1, _mm256_loadu_ps(v1 + j),
                                      acc);
                _mm256_storeu_ps(out_row + j, acc);
            }
            for (; j < d; ++j)
                out_row[j] +=
                    values[i] * v0[j] + values[i + 1] * v1[j];
        }
        for (; i < end; ++i)
            axpy(out_row, v.rowData(col_idx[i]), values[i], d);
    }
}

} // namespace

const IsaKernelTable &
avx2KernelTable()
{
    static const IsaKernelTable table = {
        IsaLevel::Avx2,       &gemmPanelAvx2,
        &sddmmCsrPanelAvx2,   &sddmmCscPanelAvx2,
        &softmaxCsrPanelAvx2, &spmmPanelAvx2,
    };
    return table;
}

} // namespace vitcod::linalg::engine::isa

#endif // __AVX2__ && __FMA__
