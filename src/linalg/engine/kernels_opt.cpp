#include "linalg/engine/kernels_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.h"

namespace vitcod::linalg::engine {

namespace {

/**
 * Four-lane dot product: independent accumulators break the serial
 * add chain so the compiler can keep the loop in SIMD registers.
 */
inline float
dot4(const float *__restrict a, const float *__restrict b, size_t n)
{
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    for (; i < n; ++i)
        s0 += a[i] * b[i];
    return (s0 + s1) + (s2 + s3);
}

/** out[0..n) += s * v[0..n), the SpMM/GEMM inner update. */
inline void
axpy(float *__restrict out, const float *__restrict v, float s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] += s * v[i];
}

} // namespace

void
gemmPanel(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
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
sddmmCsrPanel(const Matrix &q, const Matrix &k,
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
            // The gathered K rows are the only irregular accesses;
            // fetch a few entries ahead while this dot computes.
            if (i + 4 < nnz)
                __builtin_prefetch(k.rowData(col_idx[i + 4]));
            values[i] = scale * dot4(q_row, k.rowData(col_idx[i]), d);
        }
    }
}

void
sddmmCscPanel(const Matrix &q, const Matrix &k,
              const std::vector<uint32_t> &col_ptr,
              const std::vector<uint32_t> &row_idx, float *values,
              size_t c0, size_t c1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = col_ptr[c1];
    for (size_t c = c0; c < c1; ++c) {
        const float *k_row = k.rowData(c); // stationary across the column
        const uint32_t end = col_ptr[c + 1];
        for (uint32_t i = col_ptr[c]; i < end; ++i) {
            if (i + 4 < nnz)
                __builtin_prefetch(q.rowData(row_idx[i + 4]));
            values[i] = scale * dot4(q.rowData(row_idx[i]), k_row, d);
        }
    }
}

void
softmaxCsrPanel(const std::vector<uint32_t> &row_ptr, float *values,
                size_t r0, size_t r1)
{
    for (size_t r = r0; r < r1; ++r) {
        const uint32_t begin = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        if (begin == end)
            continue;
        float max_v = -std::numeric_limits<float>::infinity();
        for (uint32_t i = begin; i < end; ++i)
            max_v = std::max(max_v, values[i]);
        // Single-precision exp (the scores and weights are float
        // anyway); the running sum stays double so normalization
        // matches the reference to the last few ulps.
        double sum = 0.0;
        for (uint32_t i = begin; i < end; ++i) {
            const float e = std::exp(values[i] - max_v);
            values[i] = e;
            sum += e;
        }
        const auto inv = static_cast<float>(1.0 / sum);
        for (uint32_t i = begin; i < end; ++i)
            values[i] *= inv;
    }
}

void
spmmPanel(const std::vector<uint32_t> &row_ptr,
          const std::vector<uint32_t> &col_idx, const float *values,
          const Matrix &v, Matrix &out, size_t r0, size_t r1)
{
    const size_t d = v.cols();
    for (size_t r = r0; r < r1; ++r) {
        float *__restrict out_row = out.rowData(r);
        uint32_t i = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        // Paired update halves the out_row load/store traffic.
        for (; i + 2 <= end; i += 2) {
            const float s0 = values[i];
            const float s1 = values[i + 1];
            const float *__restrict v0 = v.rowData(col_idx[i]);
            const float *__restrict v1 = v.rowData(col_idx[i + 1]);
            for (size_t j = 0; j < d; ++j)
                out_row[j] += s0 * v0[j] + s1 * v1[j];
        }
        for (; i < end; ++i)
            axpy(out_row, v.rowData(col_idx[i]), values[i], d);
    }
}

void
maskToCsrStructure(const sparse::BitMask &mask,
                   std::vector<uint32_t> &row_ptr,
                   std::vector<uint32_t> &col_idx)
{
    const size_t rows = mask.rows();
    const size_t cols = mask.cols();
    // Count pass (vectorizable byte sum per row), then a branchless
    // fill pass: every cell stores its column, the cursor advances
    // only on set bits — random masks would mispredict a branch on
    // nearly every nonzero.
    row_ptr.assign(rows + 1, 0);
    for (size_t r = 0; r < rows; ++r) {
        uint32_t n = 0;
        for (size_t c = 0; c < cols; ++c)
            n += mask.get(r, c) ? 1u : 0u;
        row_ptr[r + 1] = row_ptr[r] + n;
    }
    // One lane of slack: the final iteration writes one past the
    // last nonzero's slot.
    col_idx.resize(row_ptr[rows] + 1);
    uint32_t *out = col_idx.data();
    for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
            *out = static_cast<uint32_t>(c);
            out += mask.get(r, c) ? 1 : 0;
        }
    }
    col_idx.resize(row_ptr[rows]);
}

void
csrToCscStructure(size_t rows, size_t cols,
                  const std::vector<uint32_t> &row_ptr,
                  const std::vector<uint32_t> &col_idx,
                  std::vector<uint32_t> &col_ptr,
                  std::vector<uint32_t> &row_idx)
{
    col_ptr.assign(cols + 1, 0);
    for (const uint32_t c : col_idx)
        ++col_ptr[c + 1];
    for (size_t c = 0; c < cols; ++c)
        col_ptr[c + 1] += col_ptr[c];
    row_idx.resize(col_idx.size());
    std::vector<uint32_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
    for (size_t r = 0; r < rows; ++r) {
        const uint32_t end = row_ptr[r + 1];
        for (uint32_t i = row_ptr[r]; i < end; ++i)
            row_idx[cursor[col_idx[i]]++] = static_cast<uint32_t>(r);
    }
}

void
cscValuesToCsr(size_t rows, const std::vector<uint32_t> &col_ptr,
               const std::vector<uint32_t> &row_idx,
               const std::vector<float> &csc_values,
               const std::vector<uint32_t> &csr_row_ptr,
               std::vector<float> &csr_values)
{
    csr_values.resize(csc_values.size());
    // Walking columns left to right emits each row's entries in
    // increasing column order, so a per-row cursor lands every value
    // in its exact CSR slot.
    std::vector<uint32_t> cursor(csr_row_ptr.begin(),
                                 csr_row_ptr.begin() +
                                     static_cast<ptrdiff_t>(rows));
    const size_t cols = col_ptr.size() - 1;
    for (size_t c = 0; c < cols; ++c) {
        const uint32_t end = col_ptr[c + 1];
        for (uint32_t i = col_ptr[c]; i < end; ++i)
            csr_values[cursor[row_idx[i]]++] = csc_values[i];
    }
}

} // namespace vitcod::linalg::engine
