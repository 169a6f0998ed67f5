/**
 * @file
 * ARM NEON kernel panels (aarch64 builds only — Advanced SIMD is
 * mandatory there, so no runtime probe beyond architecture). Kept
 * deliberately simple relative to the AVX TUs: 4-lane FMA dot/axpy
 * and vectorized softmax max/normalize passes with the exp itself
 * left to libm — correctness first on a target the primary CI
 * matrix cannot execute. The differential ulp suite still covers
 * this TU wherever an ARM runner executes the tests.
 */

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/engine/isa/isa.h"
#include "linalg/kernels.h"

namespace vitcod::linalg::engine::isa {

namespace {

/** dot(a, b) over n floats: 2x4 FMA lanes + scalar tail. */
inline float
dot(const float *__restrict a, const float *__restrict b, size_t n)
{
    float32x4_t acc0 = vdupq_n_f32(0.0f);
    float32x4_t acc1 = vdupq_n_f32(0.0f);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
        acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4),
                         vld1q_f32(b + i + 4));
    }
    if (i + 4 <= n) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
        i += 4;
    }
    float s = vaddvq_f32(vaddq_f32(acc0, acc1));
    for (; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

/** out[0..n) += s * v[0..n). */
inline void
axpy(float *__restrict out, const float *__restrict v, float s,
     size_t n)
{
    const float32x4_t bs = vdupq_n_f32(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(out + i,
                  vfmaq_f32(vld1q_f32(out + i), bs, vld1q_f32(v + i)));
    for (; i < n; ++i)
        out[i] = std::fma(s, v[i], out[i]);
}

void
gemmPanelNeon(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
              size_t r1, Epilogue ep)
{
    const size_t K = a.cols();
    const size_t N = b.cols();
    for (size_t i = r0; i < r1; ++i) {
        const float *__restrict a_row = a.rowData(i);
        float *__restrict c_row = c.rowData(i);
        std::fill_n(c_row, N, 0.0f);
        for (size_t k = 0; k < K; ++k) {
            const float aik = a_row[k];
            if (aik == 0.0f)
                continue;
            axpy(c_row, b.rowData(k), aik, N);
        }
        if (ep == Epilogue::Gelu)
            for (size_t j = 0; j < N; ++j)
                c_row[j] = linalg::gelu(c_row[j]);
    }
}

void
gemmTransBPanelNeon(const Matrix &a, const Matrix &b, Matrix &c,
                    size_t r0, size_t r1)
{
    const size_t K = a.cols();
    for (size_t i = r0; i < r1; ++i) {
        const float *a_row = a.rowData(i);
        float *c_row = c.rowData(i);
        for (size_t j = 0; j < b.rows(); ++j)
            c_row[j] = dot(a_row, b.rowData(j), K);
    }
}

void
sddmmCsrPanelNeon(const Matrix &q, const Matrix &k,
                  const std::vector<uint32_t> &row_ptr,
                  const std::vector<uint32_t> &col_idx, float *values,
                  size_t r0, size_t r1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = row_ptr[r1];
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
sddmmCscPanelNeon(const Matrix &q, const Matrix &k,
                  const std::vector<uint32_t> &col_ptr,
                  const std::vector<uint32_t> &row_idx, float *values,
                  size_t c0, size_t c1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = col_ptr[c1];
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
softmaxCsrPanelNeon(const std::vector<uint32_t> &row_ptr,
                    float *values, size_t r0, size_t r1)
{
    for (size_t r = r0; r < r1; ++r) {
        const uint32_t begin = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        if (begin == end)
            continue;
        const uint32_t n = end - begin;
        float *__restrict row = values + begin;

        float max_v = -std::numeric_limits<float>::infinity();
        uint32_t i = 0;
        if (n >= 4) {
            float32x4_t vmax = vld1q_f32(row);
            for (i = 4; i + 4 <= n; i += 4)
                vmax = vmaxq_f32(vmax, vld1q_f32(row + i));
            max_v = vmaxvq_f32(vmax);
        }
        for (; i < n; ++i)
            max_v = std::max(max_v, row[i]);

        double sum = 0.0;
        for (i = 0; i < n; ++i) {
            const float e = std::exp(row[i] - max_v);
            row[i] = e;
            sum += e;
        }

        const auto inv = static_cast<float>(1.0 / sum);
        const float32x4_t vinv = vdupq_n_f32(inv);
        for (i = 0; i + 4 <= n; i += 4)
            vst1q_f32(row + i, vmulq_f32(vld1q_f32(row + i), vinv));
        for (; i < n; ++i)
            row[i] *= inv;
    }
}

void
spmmPanelNeon(const std::vector<uint32_t> &row_ptr,
              const std::vector<uint32_t> &col_idx, const float *values,
              const Matrix &v, Matrix &out, size_t r0, size_t r1)
{
    const size_t d = v.cols();
    for (size_t r = r0; r < r1; ++r) {
        float *__restrict out_row = out.rowData(r);
        uint32_t i = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        for (; i + 2 <= end; i += 2) {
            const float32x4_t s0 = vdupq_n_f32(values[i]);
            const float32x4_t s1 = vdupq_n_f32(values[i + 1]);
            const float *__restrict v0 = v.rowData(col_idx[i]);
            const float *__restrict v1 = v.rowData(col_idx[i + 1]);
            size_t j = 0;
            for (; j + 4 <= d; j += 4) {
                float32x4_t acc = vld1q_f32(out_row + j);
                acc = vfmaq_f32(acc, s0, vld1q_f32(v0 + j));
                acc = vfmaq_f32(acc, s1, vld1q_f32(v1 + j));
                vst1q_f32(out_row + j, acc);
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
neonKernelTable()
{
    static const IsaKernelTable table = {
        IsaLevel::Neon,        &gemmPanelNeon,
        &gemmTransBPanelNeon,  &sddmmCsrPanelNeon,
        &sddmmCscPanelNeon,    &softmaxCsrPanelNeon,
        &spmmPanelNeon,
    };
    return table;
}

} // namespace vitcod::linalg::engine::isa

#endif // __aarch64__ && __ARM_NEON
