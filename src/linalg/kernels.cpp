#include "kernels.h"

#include <algorithm>
#include <cmath>

namespace vitcod::linalg {

Matrix
gemm(const Matrix &a, const Matrix &b)
{
    Matrix c;
    gemmInto(a, b, c);
    return c;
}

void
gemmInto(const Matrix &a, const Matrix &b, Matrix &c)
{
    VITCOD_ASSERT(a.cols() == b.rows(), "gemm shape mismatch: ",
                  a.rows(), "x", a.cols(), " * ", b.rows(), "x",
                  b.cols());
    c.resize(a.rows(), b.cols());
    // i-k-j loop order: streams B rows, accumulates into C rows.
    for (size_t i = 0; i < a.rows(); ++i) {
        float *c_row = c.rowData(i);
        for (size_t k = 0; k < a.cols(); ++k) {
            const float aik = a(i, k);
            if (aik == 0.0f)
                continue;
            const float *b_row = b.rowData(k);
            for (size_t j = 0; j < b.cols(); ++j)
                c_row[j] += aik * b_row[j];
        }
    }
}

Matrix
gemmTransB(const Matrix &a, const Matrix &b)
{
    VITCOD_ASSERT(a.cols() == b.cols(), "gemmTransB shape mismatch");
    Matrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i) {
        const float *a_row = a.rowData(i);
        for (size_t j = 0; j < b.rows(); ++j) {
            const float *b_row = b.rowData(j);
            double acc = 0.0;
            for (size_t k = 0; k < a.cols(); ++k)
                acc += static_cast<double>(a_row[k]) * b_row[k];
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

Matrix
axpby(float alpha, const Matrix &a, float beta, const Matrix &b)
{
    VITCOD_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                  "axpby shape mismatch");
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            c(i, j) = alpha * a(i, j) + beta * b(i, j);
    return c;
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols(), a.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            t(j, i) = a(i, j);
    return t;
}

Matrix
softmaxRows(const Matrix &a)
{
    Matrix s(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        const float *row = a.rowData(i);
        float max_v = row[0];
        for (size_t j = 1; j < a.cols(); ++j)
            max_v = std::max(max_v, row[j]);
        double sum = 0.0;
        for (size_t j = 0; j < a.cols(); ++j) {
            const double e = std::exp(static_cast<double>(row[j] - max_v));
            s(i, j) = static_cast<float>(e);
            sum += e;
        }
        const auto inv = static_cast<float>(1.0 / sum);
        for (size_t j = 0; j < a.cols(); ++j)
            s(i, j) *= inv;
    }
    return s;
}

void
layerNormRowsInto(const Matrix &x, const std::vector<float> &gamma,
                  const std::vector<float> &beta, Matrix &out)
{
    VITCOD_ASSERT(gamma.size() == x.cols() &&
                      beta.size() == x.cols(),
                  "layerNorm parameter width mismatch");
    out.resize(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
        double mean = 0.0;
        for (size_t c = 0; c < x.cols(); ++c)
            mean += x(r, c);
        mean /= static_cast<double>(x.cols());
        double var = 0.0;
        for (size_t c = 0; c < x.cols(); ++c) {
            const double d = x(r, c) - mean;
            var += d * d;
        }
        var /= static_cast<double>(x.cols());
        const double inv = 1.0 / std::sqrt(var + 1e-6);
        for (size_t c = 0; c < x.cols(); ++c)
            out(r, c) = static_cast<float>(
                (x(r, c) - mean) * inv * gamma[c] + beta[c]);
    }
}

void
reluInPlace(Matrix &a)
{
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            a(i, j) = std::max(0.0f, a(i, j));
}

float
gelu(float x)
{
    // tanh approximation: 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))
    constexpr double k = 0.7978845608028654; // sqrt(2/pi)
    const double xd = x;
    const double inner = k * (xd + 0.044715 * xd * xd * xd);
    return static_cast<float>(0.5 * xd * (1.0 + std::tanh(inner)));
}

void
geluInPlace(Matrix &a)
{
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            a(i, j) = gelu(a(i, j));
}

void
scaleInPlace(Matrix &a, float s)
{
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            a(i, j) *= s;
}

Matrix
permuteRows(const Matrix &a, const std::vector<uint32_t> &perm)
{
    VITCOD_ASSERT(perm.size() == a.rows(), "perm size mismatch");
    Matrix out(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        VITCOD_ASSERT(perm[i] < a.rows(), "perm index out of range");
        const float *src = a.rowData(perm[i]);
        std::copy(src, src + a.cols(), out.rowData(i));
    }
    return out;
}

double
frobeniusNorm(const Matrix &a)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            sum += static_cast<double>(a(i, j)) * a(i, j);
    return std::sqrt(sum);
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    VITCOD_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                  "maxAbsDiff shape mismatch");
    double m = 0.0;
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(static_cast<double>(a(i, j)) -
                                     b(i, j)));
    return m;
}

double
meanSquaredError(const Matrix &a, const Matrix &b)
{
    VITCOD_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                  "meanSquaredError shape mismatch");
    double sum = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < a.cols(); ++j) {
            const double d = static_cast<double>(a(i, j)) - b(i, j);
            sum += d * d;
        }
    }
    return sum / static_cast<double>(a.rows() * a.cols());
}

} // namespace vitcod::linalg
