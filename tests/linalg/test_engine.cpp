/**
 * @file
 * Differential tests of the kernel execution engine: every optimized
 * path (tiled GEMM, CSR and CSC SDDMM, fused masked softmax, SpMM,
 * fused sparse attention, parallel panels) must reproduce the scalar
 * golden kernels within a small ulp budget, across random masks
 * spanning sparsity 0.50-0.98, and produce bitwise identical results
 * across repeated parallel runs. The attention stages are checked
 * one by one straight off the ISA kernel tables, and end to end
 * through the engine's one fused entry point.
 *
 * The whole differential suite is value-parameterized over every ISA
 * level compiled into this binary (isa::compiledIsaLevels()); levels
 * the host CPU cannot execute are skipped with a notice. The scalar
 * level additionally pins bitwise guarantees the SIMD levels cannot
 * make (FMA contracts the multiply-add rounding).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/engine/engine.h"
#include "linalg/engine/isa/isa.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/kernels.h"
#include "linalg/sparse_kernels.h"
#include "sparse/bitmask.h"

namespace vitcod::linalg {
namespace {

using engine::DispatchStats;
using engine::EngineConfig;
using engine::Epilogue;
using engine::IsaLevel;
using engine::KernelEngine;
using engine::KernelTier;
using engine::MaskLayout;
using engine::ThreadPool;

/** ulp distance between two finite floats (huge when signs differ). */
uint64_t
ulpDiff(float a, float b)
{
    if (a == b)
        return 0;
    int32_t ia, ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    if ((ia < 0) != (ib < 0))
        return UINT64_MAX;
    return static_cast<uint64_t>(
        std::abs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib)));
}

/**
 * Optimized kernels accumulate in independent float lanes (and the
 * SIMD levels contract with FMA and use a polynomial expf) where the
 * oracle accumulates in one double, so "equal" means: identical
 * bits, or within a ulp budget, or within a tiny absolute band
 * (values that cancel toward zero lose relative precision without
 * being wrong).
 */
void
expectUlpClose(float a, float b, const char *what, uint64_t max_ulps = 4096)
{
    if (std::abs(a - b) <= 1e-5f)
        return;
    EXPECT_LE(ulpDiff(a, b), max_ulps)
        << what << ": " << a << " vs " << b;
}

void
expectMatrixClose(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            expectUlpClose(a(r, c), b(r, c), what);
}

/** Random mask at the target sparsity; row 0 is forced empty to
 *  cover the fully-masked-row path. */
sparse::BitMask
randomMask(size_t n, double sparsity, Rng &rng)
{
    sparse::BitMask mask(n, n);
    const auto target = static_cast<size_t>(
        static_cast<double>(n * n) * (1.0 - sparsity));
    size_t nnz = 0;
    while (nnz < target) {
        const auto r = static_cast<size_t>(rng.uniformInt(n));
        const auto c = static_cast<size_t>(rng.uniformInt(n));
        if (r == 0 || mask.get(r, c))
            continue;
        mask.set(r, c, true);
        ++nnz;
    }
    return mask;
}

constexpr double kSparsities[] = {0.50, 0.70, 0.85, 0.90, 0.95, 0.98};

/** The per-ISA launch counter of @p st for @p level. */
uint64_t
isaLaunches(const DispatchStats &st, IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar: return st.isaScalar;
    case IsaLevel::Avx2: return st.isaAvx2;
    case IsaLevel::Avx512: return st.isaAvx512;
    }
    return 0;
}

/** Same shape and the same bits (distinguishes -0/+0, NaNs). */
bool
bitwiseEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

/**
 * C = A*B with every element an in-order std::fma chain from +0 over
 * k (zeros in A included): the vector GEMM tiles' bitwise contract.
 */
Matrix
gemmInOrderFma(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        float *c_row = c.rowData(i);
        for (size_t k = 0; k < a.cols(); ++k) {
            const float aik = a(i, k);
            const float *b_row = b.rowData(k);
            for (size_t j = 0; j < b.cols(); ++j)
                c_row[j] = std::fma(aik, b_row[j], c_row[j]);
        }
    }
    return c;
}

/**
 * A K=1 GEMM whose output repeats each of @p xs across @p width
 * columns (x * 1 from +0 is exact), so @p eng's GELU epilogue sees
 * exactly these inputs in full vectors and in masked tails.
 */
Matrix
geluThroughGemm(const KernelEngine &eng, const std::vector<float> &xs,
                size_t width)
{
    Matrix a(xs.size(), 1);
    for (size_t i = 0; i < xs.size(); ++i)
        a(i, 0) = xs[i];
    Matrix b(1, width);
    b.fill(1.0f);
    Matrix c;
    eng.gemmInto(a, b, c, Epilogue::Gelu);
    return c;
}

/**
 * Differential suite over one compiled ISA level. Skips (with a
 * notice in the test output) when the host CPU cannot execute the
 * level — e.g. the AVX-512 instantiation on an AVX2-only runner.
 */
class KernelEngineIsa : public ::testing::TestWithParam<IsaLevel>
{
  protected:
    void SetUp() override
    {
        if (!engine::isa::cpuSupports(engine::isa::hostCpuFeatures(),
                                      GetParam()))
            GTEST_SKIP() << "host CPU cannot execute "
                         << engine::isaName(GetParam());
    }

    /** Optimized-tier config pinned to the parameterized ISA. */
    EngineConfig
    optCfg() const
    {
        return {.tier = KernelTier::Optimized, .isa = GetParam()};
    }

    /** The parameterized ISA's panels (compiled, so never null). */
    const engine::isa::IsaKernelTable &
    table() const
    {
        return *engine::isa::isaKernelTable(GetParam());
    }
};

INSTANTIATE_TEST_SUITE_P(
    CompiledIsas, KernelEngineIsa,
    ::testing::ValuesIn(engine::isa::compiledIsaLevels().begin(),
                        engine::isa::compiledIsaLevels().end()),
    [](const ::testing::TestParamInfo<IsaLevel> &info) {
        return std::string(engine::isaName(info.param));
    });

TEST_P(KernelEngineIsa, SddmmMatchesOracleAcrossSparsities)
{
    // Both SDDMM walks off the ISA table: the CSR panel against the
    // oracle, and the CSC panel scattered back to CSR order bitwise
    // equal to it (same dot, other traversal — d = 64 takes the
    // vector levels' grouped-gather kernel on both).
    const auto &kt = table();
    Rng rng(7);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto ref = sddmm(q, k, mask, 0.125f);
        const MaskLayout l = engine::buildMaskLayout(mask, 0.0);
        ASSERT_EQ(l.rowPtr, ref.rowPtr());
        ASSERT_EQ(l.colIdx, ref.colIdx());
        ASSERT_TRUE(l.useCsc);

        std::vector<float> csr(l.colIdx.size());
        kt.sddmmCsrPanel(q, k, l.rowPtr, l.colIdx, csr.data(), 0,
                         mask.rows(), 0.125f);
        for (size_t i = 0; i < csr.size(); ++i)
            expectUlpClose(csr[i], ref.values()[i], "sddmm");

        std::vector<float> csc(l.rowIdx.size()), scattered;
        kt.sddmmCscPanel(q, k, l.colPtr, l.rowIdx, csc.data(), 0,
                         mask.cols(), 0.125f);
        engine::cscValuesToCsr(mask.rows(), l.colPtr, l.rowIdx, csc,
                               l.rowPtr, scattered);
        EXPECT_EQ(scattered, csr) << "sparsity " << sp;
    }
}

TEST_P(KernelEngineIsa, CscAndCsrSddmmPathsAgreeBitwise)
{
    // The same mask compiled with and without the CSC walk: fused
    // attention must be bitwise identical per ISA, not merely close.
    const KernelEngine eng(optCfg());
    Rng rng(11);
    const auto q = Matrix::randomNormal(128, 48, rng);
    const auto k = Matrix::randomNormal(128, 48, rng);
    const auto v = Matrix::randomNormal(128, 48, rng);
    Matrix via_csc, via_csr;
    for (double sp : {0.6, 0.9}) {
        const auto mask = randomMask(128, sp, rng);
        const MaskLayout csc = engine::buildMaskLayout(mask, 0.0);
        const MaskLayout csr = engine::buildMaskLayout(mask, 2.0);
        ASSERT_TRUE(csc.useCsc);
        ASSERT_FALSE(csr.useCsc);
        eng.sparseAttentionInto(q, k, v, mask, csc.view(128, 128), 1.0f,
                                via_csc);
        eng.sparseAttentionInto(q, k, v, mask, csr.view(128, 128), 1.0f,
                                via_csr);
        EXPECT_TRUE(bitwiseEqual(via_csc, via_csr)) << "sparsity " << sp;
    }
    EXPECT_EQ(eng.stats().sddmmCsc, 2u);
    EXPECT_EQ(eng.stats().sddmmCsr, 2u);
}

TEST_P(KernelEngineIsa, MaskedSoftmaxMatchesOracle)
{
    const auto &kt = table();
    Rng rng(13);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto s = sddmm(q, k, mask, 0.125f);
        const auto ref = maskedSoftmaxRows(s);
        std::vector<float> got = s.values();
        kt.softmaxCsrPanel(s.rowPtr(), got.data(), 0, s.rows());
        for (size_t i = 0; i < got.size(); ++i)
            expectUlpClose(got[i], ref.values()[i], "maskedSoftmax");
        // Rows must still sum to 1.
        for (size_t r = 1; r < s.rows(); ++r) {
            if (s.rowNnz(r) == 0)
                continue;
            double sum = 0.0;
            for (uint32_t i = s.rowPtr()[r]; i < s.rowPtr()[r + 1]; ++i)
                sum += got[i];
            EXPECT_NEAR(sum, 1.0, 1e-5);
        }
    }
}

TEST_P(KernelEngineIsa, SpmmMatchesOracle)
{
    const auto &kt = table();
    Rng rng(17);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    const auto v = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto s = maskedSoftmaxRows(sddmm(q, k, mask, 0.125f));
        Matrix got(s.rows(), v.cols()); // the panel accumulates
        kt.spmmPanel(s.rowPtr(), s.colIdx(), s.values().data(), v, got,
                     0, s.rows());
        expectMatrixClose(got, spmm(s, v), "spmm");
    }
}

TEST_P(KernelEngineIsa, FusedSparseAttentionMatchesComposedOracle)
{
    const KernelEngine opt(optCfg());
    Rng rng(19);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    const auto v = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto ref = spmm(
            maskedSoftmaxRows(sddmm(q, k, mask, 0.125f)), v);
        expectMatrixClose(opt.sparseAttention(q, k, v, mask, 0.125f),
                          ref, "sparseAttention");
    }
}

TEST_P(KernelEngineIsa, GemmMatchesOracle)
{
    const KernelEngine opt(optCfg());
    Rng rng(23);
    const auto a = Matrix::randomNormal(197, 384, rng);
    const auto b = Matrix::randomNormal(384, 384, rng);
    const auto ref = gemm(a, b);
    const auto got = opt.gemm(a, b);
    if (GetParam() == IsaLevel::Scalar) {
        // Identical accumulation order (ascending k per output
        // element) without FMA contraction: the scalar i-k-j panel
        // must be bit-for-bit the reference.
        EXPECT_TRUE(got == ref);
    } else {
        expectMatrixClose(got, ref, "gemm");
    }
}

TEST_P(KernelEngineIsa, GemmBitwiseContractAcrossShapes)
{
    // Every tile shape, row tail and masked column tail must leave
    // each element's arithmetic untouched: the scalar level is the
    // reference loop, the vector levels one fma per k in ascending
    // order from +0. Panels cut at multiples of 5 rows (splitting
    // 4-row tiles unevenly) and pooled runs at 2-4 workers must
    // match the serial run bit for bit.
    const bool scalar = GetParam() == IsaLevel::Scalar;
    const auto &kt = table();
    const KernelEngine ser(optCfg());
    EngineConfig pcfg = optCfg();
    pcfg.minParallelMacs = 1;
    ThreadPool pool2(2), pool3(3), pool4(4);
    const KernelEngine par2(pcfg, &pool2), par3(pcfg, &pool3),
        par4(pcfg, &pool4);
    const KernelEngine *pooled_engines[] = {&par2, &par3, &par4};
    Rng rng(53);
    Matrix got, panels, pooled;
    for (size_t m : {1u, 3u, 4u, 5u, 16u, 197u})
        for (size_t k : {1u, 7u, 64u, 65u, 192u, 768u})
            for (size_t n : {1u, 15u, 16u, 17u, 63u, 64u, 65u, 192u,
                             200u, 576u}) {
                auto a = Matrix::randomNormal(m, k, rng);
                for (float &x : std::span(a.data(), a.size()))
                    if (rng.uniformInt(7) == 0)
                        x = 0.0f;
                const auto b = Matrix::randomNormal(k, n, rng);
                const Matrix want =
                    scalar ? gemm(a, b) : gemmInOrderFma(a, b);
                ser.gemmInto(a, b, got);
                EXPECT_TRUE(bitwiseEqual(got, want))
                    << m << "x" << k << "x" << n;
                panels.reshapeUninit(m, n);
                for (size_t r0 = 0; r0 < m; r0 += 5)
                    kt.gemmPanel(a, b, panels, r0, std::min(m, r0 + 5),
                                 Epilogue::None);
                EXPECT_TRUE(bitwiseEqual(panels, got))
                    << "5-row panels " << m << "x" << k << "x" << n;
                for (const KernelEngine *par : pooled_engines) {
                    par->gemmInto(a, b, pooled);
                    EXPECT_TRUE(bitwiseEqual(pooled, got))
                        << "pooled " << m << "x" << k << "x" << n;
                }
            }
    for (const KernelEngine *par : pooled_engines)
        EXPECT_GT(par->stats().parallelLaunches, 0u);
}

TEST_P(KernelEngineIsa, EmptyInnerDimensionGivesZeros)
{
    const KernelEngine opt(optCfg());
    const Matrix a(5, 0), b(0, 33);
    for (Epilogue ep : {Epilogue::None, Epilogue::Gelu}) {
        Matrix c(2, 2);
        c.fill(7.0f);
        opt.gemmInto(a, b, c, ep);
        EXPECT_TRUE(bitwiseEqual(c, Matrix(5, 33)));
    }
}

TEST_P(KernelEngineIsa, GeluEpilogueTracksOracle)
{
    // Dense sweep of [-12, 12]. The scalar level runs the oracle
    // itself; the vector levels' x / (1 + exp(-2u)) must stay within
    // 64 ulp wherever |gelu| > 1e-6 and within 1e-6 below that,
    // where the oracle's double tanh saturates to -0.
    const KernelEngine opt(optCfg());
    std::vector<float> xs;
    for (int i = -12 * 1024; i <= 12 * 1024; ++i)
        xs.push_back(static_cast<float>(i) / 1024.0f);
    const Matrix got = geluThroughGemm(opt, xs, 17);
    for (size_t i = 0; i < xs.size(); ++i) {
        const float want = gelu(xs[i]);
        for (size_t j = 0; j < got.cols(); ++j) {
            const float g = got(i, j);
            if (GetParam() == IsaLevel::Scalar)
                ASSERT_EQ(g, want) << "x = " << xs[i];
            else if (std::abs(want) > 1e-6f)
                ASSERT_LE(ulpDiff(g, want), 64u)
                    << "x = " << xs[i] << ": " << g << " vs " << want;
            else
                ASSERT_LE(std::abs(g - want), 1e-6f)
                    << "x = " << xs[i] << ": " << g << " vs " << want;
        }
    }
}

TEST_P(KernelEngineIsa, GeluEpilogueEdgeValues)
{
    // A GEMM from +0 never produces -0, so -0 arrives as +0. The
    // vector levels saturate both infinities (gelu -> x above, -> 0
    // below); the scalar level is the oracle, whose 0.5x(1 + tanh)
    // is NaN at -inf.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const KernelEngine opt(optCfg());
    const std::vector<float> xs = {0.0f,  -0.0f, 1e4f, -1e4f,
                                   kInf, -kInf, std::nanf("")};
    const Matrix got = geluThroughGemm(opt, xs, 19);
    const bool scalar = GetParam() == IsaLevel::Scalar;
    for (size_t j = 0; j < got.cols(); ++j) {
        EXPECT_EQ(got(0, j), 0.0f);
        EXPECT_EQ(got(1, j), 0.0f);
        EXPECT_EQ(got(2, j), 1e4f);
        EXPECT_EQ(got(3, j), 0.0f);
        EXPECT_EQ(got(4, j), kInf);
        if (scalar)
            EXPECT_TRUE(std::isnan(got(5, j)));
        else
            EXPECT_EQ(got(5, j), 0.0f);
        EXPECT_TRUE(std::isnan(got(6, j)));
    }
}

TEST_P(KernelEngineIsa, RaggedWidthsMatchOracle)
{
    // Odd feature dims exercise every SIMD tail path (masked loads
    // on AVX-512, scalar remainders elsewhere): 1 below/above the
    // 8- and 16-lane widths plus a sub-vector dim.
    const KernelEngine opt(optCfg());
    Rng rng(33);
    for (size_t d : {3u, 7u, 9u, 15u, 17u, 31u}) {
        const auto q = Matrix::randomNormal(64, d, rng);
        const auto k = Matrix::randomNormal(64, d, rng);
        const auto v = Matrix::randomNormal(64, d, rng);
        const auto mask = randomMask(64, 0.8, rng);
        const auto ref = spmm(
            maskedSoftmaxRows(sddmm(q, k, mask, 0.5f)), v);
        expectMatrixClose(opt.sparseAttention(q, k, v, mask, 0.5f),
                          ref, "ragged sparseAttention");
    }
}

TEST_P(KernelEngineIsa, ParallelRunsAreBitwiseDeterministic)
{
    ThreadPool pool(4);
    EngineConfig cfg = optCfg();
    cfg.minParallelMacs = 1;
    const KernelEngine par(cfg, &pool);
    const KernelEngine ser(optCfg());
    Rng rng(31);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    const auto v = Matrix::randomNormal(196, 64, rng);
    const auto mask = randomMask(196, 0.9, rng);

    const Matrix serial = ser.sparseAttention(q, k, v, mask, 0.125f);
    for (int run = 0; run < 8; ++run) {
        const Matrix p = par.sparseAttention(q, k, v, mask, 0.125f);
        EXPECT_TRUE(p == serial) << "parallel run " << run;
    }
    EXPECT_GT(par.stats().parallelLaunches, 0u);
}

TEST_P(KernelEngineIsa, VariantAndLaunchCountersReportThisIsa)
{
    const KernelEngine opt(optCfg());
    EXPECT_EQ(opt.variant(),
              (engine::KernelVariant{KernelTier::Optimized,
                                     GetParam()}));
    Rng rng(37);
    const auto q = Matrix::randomNormal(128, 64, rng);
    const auto k = Matrix::randomNormal(128, 64, rng);
    const auto v = Matrix::randomNormal(128, 64, rng);
    const auto mask = randomMask(128, 0.9, rng);
    (void)opt.sparseAttention(q, k, v, mask, 0.125f);

    const DispatchStats st = opt.stats();
    // Fused attention = one SDDMM + one softmax + one SpMM launch,
    // all on the pinned ISA.
    EXPECT_EQ(isaLaunches(st, GetParam()), 3u);
    for (IsaLevel other : engine::isa::compiledIsaLevels()) {
        if (other != GetParam()) {
            EXPECT_EQ(isaLaunches(st, other), 0u)
                << engine::isaName(other);
        }
    }
}

TEST_P(KernelEngineIsa, EmptyAndFullMasksAreHandled)
{
    const KernelEngine opt(optCfg());
    Rng rng(43);
    const auto q = Matrix::randomNormal(16, 8, rng);
    const auto k = Matrix::randomNormal(16, 8, rng);
    const auto v = Matrix::randomNormal(16, 8, rng);

    sparse::BitMask empty(16, 16);
    const auto out_empty = opt.sparseAttention(q, k, v, empty, 1.0f);
    EXPECT_EQ(out_empty, Matrix(16, 8)); // all-zero

    sparse::BitMask full(16, 16);
    for (size_t r = 0; r < 16; ++r)
        for (size_t c = 0; c < 16; ++c)
            full.set(r, c, true);
    const auto ref = spmm(maskedSoftmaxRows(sddmm(q, k, full, 1.0f)), v);
    expectMatrixClose(opt.sparseAttention(q, k, v, full, 1.0f), ref,
                      "full mask");
}

/** Every (row, col) a layout's CSR indexes, in CSR order. */
std::vector<std::pair<uint32_t, uint32_t>>
csrCells(const MaskLayout &l)
{
    std::vector<std::pair<uint32_t, uint32_t>> cells;
    for (uint32_t r = 0; r + 1 < l.rowPtr.size(); ++r)
        for (uint32_t i = l.rowPtr[r]; i < l.rowPtr[r + 1]; ++i)
            cells.emplace_back(r, l.colIdx[i]);
    return cells;
}

/** A rows x cols mask with the first @p nnz cells (row-major) set. */
sparse::BitMask
prefixMask(size_t rows, size_t cols, size_t nnz)
{
    sparse::BitMask mask(rows, cols);
    for (size_t i = 0; i < nnz; ++i)
        mask.set(i / cols, i % cols, true);
    return mask;
}

TEST(BuildMaskLayout, EmitsValidCsrOfTheMask)
{
    Rng rng(53);
    for (double sp : kSparsities) {
        // Non-square, so a rows/cols mix-up cannot pass.
        sparse::BitMask mask(37, 53);
        for (size_t r = 0; r < mask.rows(); ++r)
            for (size_t c = 0; c < mask.cols(); ++c)
                mask.set(r, c, rng.uniform() >= sp);
        const MaskLayout l = engine::buildMaskLayout(mask, 0.95);
        ASSERT_EQ(l.rowPtr.size(), mask.rows() + 1);
        EXPECT_EQ(l.rowPtr.front(), 0u);
        EXPECT_EQ(l.rowPtr.back(), mask.nnz());
        ASSERT_EQ(l.colIdx.size(), mask.nnz());
        for (size_t r = 0; r < mask.rows(); ++r) {
            ASSERT_LE(l.rowPtr[r], l.rowPtr[r + 1]);
            for (uint32_t i = l.rowPtr[r]; i < l.rowPtr[r + 1]; ++i) {
                ASSERT_LT(l.colIdx[i], mask.cols());
                EXPECT_TRUE(mask.get(r, l.colIdx[i]));
                if (i > l.rowPtr[r]) {
                    EXPECT_LT(l.colIdx[i - 1], l.colIdx[i]);
                }
            }
        }
    }
}

TEST(BuildMaskLayout, EmitsCscExactlyBelowTheDensityBound)
{
    // 8x8 at threshold 0.75: the bound (1 - 0.75) * 64 = 16 is exact
    // in double, so the probe sits precisely on it.
    for (size_t nnz : {0u, 1u, 15u, 16u, 17u, 64u}) {
        const auto mask = prefixMask(8, 8, nnz);
        const MaskLayout l = engine::buildMaskLayout(mask, 0.75);
        EXPECT_EQ(l.useCsc, nnz < 16) << "nnz " << nnz;
        if (!l.useCsc) {
            EXPECT_TRUE(l.colPtr.empty());
            EXPECT_TRUE(l.rowIdx.empty());
        }
    }
    // Threshold 0 takes CSC for every mask but the full one;
    // threshold 1 never does.
    EXPECT_TRUE(engine::buildMaskLayout(prefixMask(8, 8, 63), 0.0).useCsc);
    EXPECT_FALSE(
        engine::buildMaskLayout(prefixMask(8, 8, 64), 0.0).useCsc);
    EXPECT_FALSE(
        engine::buildMaskLayout(prefixMask(8, 8, 0), 1.0).useCsc);
}

TEST(BuildMaskLayout, EmptyAndFullMasks)
{
    const MaskLayout empty =
        engine::buildMaskLayout(sparse::BitMask(6, 9), 0.95);
    EXPECT_EQ(empty.rowPtr, std::vector<uint32_t>(7, 0));
    EXPECT_TRUE(empty.colIdx.empty());
    ASSERT_TRUE(empty.useCsc);
    EXPECT_EQ(empty.colPtr, std::vector<uint32_t>(10, 0));
    EXPECT_TRUE(empty.rowIdx.empty());

    const MaskLayout full =
        engine::buildMaskLayout(prefixMask(6, 9, 54), 0.95);
    EXPECT_FALSE(full.useCsc);
    for (size_t r = 0; r <= 6; ++r)
        EXPECT_EQ(full.rowPtr[r], r * 9);
    for (size_t i = 0; i < full.colIdx.size(); ++i)
        EXPECT_EQ(full.colIdx[i], i % 9);
}

TEST(BuildMaskLayout, CscAndCsrIndexTheSameNonzeros)
{
    Rng rng(61);
    for (double sp : kSparsities) {
        const auto mask = randomMask(96, sp, rng);
        const MaskLayout l = engine::buildMaskLayout(mask, 0.0);
        ASSERT_TRUE(l.useCsc);
        ASSERT_EQ(l.colPtr.size(), mask.cols() + 1);
        ASSERT_EQ(l.rowIdx.size(), l.colIdx.size());
        std::vector<std::pair<uint32_t, uint32_t>> csc;
        for (uint32_t c = 0; c < mask.cols(); ++c)
            for (uint32_t i = l.colPtr[c]; i < l.colPtr[c + 1]; ++i) {
                if (i > l.colPtr[c]) {
                    EXPECT_LT(l.rowIdx[i - 1], l.rowIdx[i]);
                }
                csc.emplace_back(l.rowIdx[i], c);
            }
        std::sort(csc.begin(), csc.end());
        EXPECT_EQ(csc, csrCells(l)); // CSR order is (row, col) sorted
    }
}

TEST(KernelEngine, AutoTierDispatchesBySize)
{
    // ISA pinned to Scalar so the counter assertions below are
    // host-independent; the Auto-picks-highest-ISA behavior is
    // covered by test_isa_dispatch.cpp.
    const KernelEngine eng({.isa = IsaLevel::Scalar});
    Rng rng(37);
    // Tiny: reference path.
    const auto a_small = Matrix::randomNormal(4, 4, rng);
    const auto b_small = Matrix::randomNormal(4, 4, rng);
    (void)eng.gemm(a_small, b_small);
    EXPECT_EQ(eng.stats().gemmOptimized, 0u);
    EXPECT_EQ(eng.stats().gemmReference, 1u);
    EXPECT_EQ(eng.stats().isaScalar, 0u); // reference launch: no ISA
    // Big: optimized path.
    const auto a_big = Matrix::randomNormal(196, 384, rng);
    const auto b_big = Matrix::randomNormal(384, 384, rng);
    (void)eng.gemm(a_big, b_big);
    EXPECT_EQ(eng.stats().gemmOptimized, 1u);
    EXPECT_EQ(eng.stats().isaScalar, 1u);
}

TEST(KernelEngine, ReferenceTierPinsTheOracle)
{
    const KernelEngine ref({.tier = KernelTier::Reference});
    EXPECT_EQ(ref.variant(),
              (engine::KernelVariant{KernelTier::Reference,
                                     IsaLevel::Scalar}));
    Rng rng(41);
    const auto q = Matrix::randomNormal(64, 32, rng);
    const auto k = Matrix::randomNormal(64, 32, rng);
    const auto v = Matrix::randomNormal(64, 32, rng);
    const auto mask = randomMask(64, 0.9, rng);
    const Matrix got = ref.sparseAttention(q, k, v, mask, 1.0f);
    const Matrix want =
        spmm(maskedSoftmaxRows(sddmm(q, k, mask, 1.0f)), v);
    EXPECT_TRUE(bitwiseEqual(got, want));
    const DispatchStats st = ref.stats();
    EXPECT_EQ(st.sddmmReference, 1u);
    EXPECT_EQ(st.softmaxReference, 1u);
    EXPECT_EQ(st.spmmReference, 1u);
    EXPECT_EQ(st.sddmmCsr + st.sddmmCsc, 0u);
    EXPECT_EQ(st.isaScalar + st.isaAvx2 + st.isaAvx512, 0u);
}

TEST(KernelEngine, ReferenceTierGeluEpilogueIsTheOracle)
{
    const KernelEngine ref(
        {.tier = KernelTier::Reference, .isa = std::nullopt});
    Rng rng(59);
    const auto a = Matrix::randomNormal(37, 48, rng);
    const auto b = Matrix::randomNormal(48, 80, rng);
    Matrix got;
    ref.gemmInto(a, b, got, Epilogue::Gelu);
    Matrix want;
    gemmInto(a, b, want);
    geluInPlace(want);
    EXPECT_TRUE(bitwiseEqual(got, want));
    EXPECT_EQ(ref.stats().gemmReference, 1u);
    EXPECT_EQ(ref.stats().gemmOptimized, 0u);
}

TEST(KernelEngine, DispatchStatsDifferenceIsCounterWise)
{
    DispatchStats a, b;
    a.gemmOptimized = 5;
    a.isaAvx2 = 7;
    b.gemmOptimized = 2;
    b.isaAvx2 = 3;
    const DispatchStats d = a - b;
    EXPECT_EQ(d.gemmOptimized, 3u);
    EXPECT_EQ(d.isaAvx2, 4u);
    EXPECT_EQ(d.sddmmCsr, 0u);
}

} // namespace
} // namespace vitcod::linalg
