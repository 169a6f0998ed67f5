/**
 * @file
 * Differential full-model tests: ModelExecutor (Optimized engine,
 * multi-threaded) against an independent layer-by-layer scalar
 * oracle — patch-embed GEMM, ReferenceBlock::forwardSparse per
 * layer on a Reference-pinned engine, scalar pooling/LayerNorm/
 * classifier — across randomized configs (layers 2/4/12, heads
 * 3/6, sparsity 0.50-0.98, batch 1-4). Logits must agree within a
 * per-element ulp budget, repeated parallel runs must be bitwise
 * identical, and the BufferArena must never grow after its
 * reservation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "core/reference_block.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/kernels.h"

namespace vitcod::core::model_exec {
namespace {

using linalg::Matrix;
using linalg::engine::KernelTier;
using linalg::engine::KernelEngine;
using linalg::engine::ThreadPool;

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
 * Whole-model budget: float error compounds per layer (the engine's
 * per-kernel budget is 4096 ulps), so the allowance scales with
 * depth; values cancelling toward zero get a small absolute band.
 */
void
expectLogitsClose(const Matrix &got, const Matrix &want,
                  size_t layers, const char *what)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    const uint64_t max_ulps = 4096 * layers;
    for (size_t r = 0; r < got.rows(); ++r)
        for (size_t c = 0; c < got.cols(); ++c) {
            const float a = got(r, c);
            const float b = want(r, c);
            if (std::abs(a - b) <= 1e-4f)
                continue;
            EXPECT_LE(ulpDiff(a, b), max_ulps)
                << what << " (" << r << "," << c << "): " << a
                << " vs " << b;
        }
}

/** Single-stage test model; embedDim = heads * headDim. */
model::VitModelConfig
testModel(size_t layers, size_t heads, size_t tokens,
          size_t head_dim = 8)
{
    model::VitModelConfig m;
    m.name = "test-model";
    m.stages = {{layers, tokens, heads, head_dim, heads * head_dim,
                 2}};
    return m;
}

std::vector<SparseAttentionPlan>
layerPlans(const core::ModelPlan &plan, size_t layer, size_t heads)
{
    std::vector<SparseAttentionPlan> plans;
    for (size_t h = 0; h < heads; ++h)
        plans.push_back(plan.planOf(layer, h));
    return plans;
}

Matrix
scalarLayerNorm(const Matrix &x, const std::vector<float> &gamma,
                const std::vector<float> &beta)
{
    Matrix out(x.rows(), x.cols());
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
    return out;
}

/** Independent scalar pooling (same grouping rule as the executor,
 *  reimplemented). */
Matrix
scalarPoolTokens(const Matrix &x, size_t n_new)
{
    Matrix out(n_new, x.cols());
    for (size_t i = 0; i < n_new; ++i) {
        const size_t r0 = i * x.rows() / n_new;
        const size_t r1 = (i + 1) * x.rows() / n_new;
        for (size_t c = 0; c < x.cols(); ++c) {
            float sum = 0.0f;
            for (size_t r = r0; r < r1; ++r)
                sum += x(r, c);
            out(i, c) =
                sum / static_cast<float>(r1 - r0);
        }
    }
    return out;
}

/**
 * The oracle: layer-by-layer scalar forward using ReferenceBlock on
 * a Reference-pinned engine, with scalar patch-embed, stage pooling
 * and classifier.
 */
Matrix
oracleForward(const core::ModelPlan &plan, const ModelWeights &w,
              const Matrix &patches, size_t num_classes)
{
    static const KernelEngine ref_eng{
        {.tier = KernelTier::Reference}};
    const model::VitModelConfig &m = plan.model;

    Matrix x = linalg::gemm(patches, w.patchEmbed);
    size_t stage = 0;
    size_t stage_first = 0;
    for (size_t layer = 0; layer < m.totalLayers(); ++layer) {
        while (layer >= stage_first + m.stages[stage].layers) {
            stage_first += m.stages[stage].layers;
            ++stage;
            x = linalg::gemm(
                scalarPoolTokens(x, m.stages[stage].tokens),
                w.stageProj[stage - 1]);
        }
        const model::StageConfig &s = m.stages[stage];
        const ReferenceBlock block(s, w.blocks[layer], &ref_eng);
        x = block.forwardSparse(x, layerPlans(plan, layer, s.heads));
    }

    const Matrix normed =
        scalarLayerNorm(x, w.lnFinalGamma, w.lnFinalBeta);
    Matrix pooled(1, normed.cols());
    for (size_t c = 0; c < normed.cols(); ++c) {
        double sum = 0.0;
        for (size_t r = 0; r < normed.rows(); ++r)
            sum += normed(r, c);
        pooled(0, c) =
            static_cast<float>(sum) /
            static_cast<float>(normed.rows());
    }
    (void)num_classes;
    return linalg::gemm(pooled, w.classifier);
}

struct DiffCase
{
    size_t layers;
    size_t heads;
    size_t tokens;
    double sparsity;
    size_t batch;
};

class ModelExecDifferential
    : public ::testing::TestWithParam<DiffCase>
{};

TEST_P(ModelExecDifferential, MatchesScalarOracle)
{
    const DiffCase c = GetParam();
    const auto m = testModel(c.layers, c.heads, c.tokens);
    const auto plan =
        buildModelPlan(m, makePipelineConfig(c.sparsity, false));

    Rng rng(97);
    const size_t num_classes = 16;
    const ExecutorConfig ecfg{.numClasses = num_classes};
    ModelWeights w =
        ModelWeights::random(m, 0, num_classes, rng);

    ThreadPool pool(4);
    const KernelEngine opt({.tier = KernelTier::Optimized,
                            .rowPanel = 8,
                            .minParallelMacs = 1},
                           &pool);
    ModelExecutor exec(&plan, std::move(w), ecfg, &opt);

    std::vector<Matrix> inputs;
    for (size_t b = 0; b < c.batch; ++b)
        inputs.push_back(Matrix::randomNormal(
            c.tokens, m.stages[0].embedDim, rng));

    ExecTrace trace;
    const auto logits = exec.forwardBatch(inputs, &trace);
    ASSERT_EQ(logits.size(), c.batch);

    for (size_t b = 0; b < c.batch; ++b) {
        const Matrix want = oracleForward(plan, exec.weights(),
                                          inputs[b], num_classes);
        expectLogitsClose(logits[b], want, c.layers, "logits");
    }

    // Trace structure reflects the model and the work done.
    EXPECT_EQ(trace.batch, c.batch);
    ASSERT_EQ(trace.layers.size(), c.layers);
    EXPECT_GT(trace.totalMacs, 0u);
    EXPECT_GT(trace.dispatch.gemmOptimized, 0u);
    EXPECT_EQ(trace.dispatch.gemmReference, 0u);
    for (const LayerTrace &lt : trace.layers) {
        EXPECT_EQ(lt.tokens, c.tokens);
        ASSERT_EQ(lt.headTraces.size(), c.heads);
        for (size_t h = 0; h < c.heads; ++h)
            EXPECT_EQ(lt.headTraces[h].maskNnz,
                      plan.planOf(lt.layer, h).mask.nnz());
    }

    // The arena never grew past its reservation.
    EXPECT_EQ(exec.arena().growths(), 0u);
    EXPECT_GT(exec.arena().footprintBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelExecDifferential,
    ::testing::Values(DiffCase{2, 3, 48, 0.50, 1},
                      DiffCase{2, 6, 48, 0.80, 3},
                      DiffCase{4, 6, 64, 0.90, 2},
                      DiffCase{12, 3, 40, 0.98, 4}),
    [](const auto &info) {
        const DiffCase &c = info.param;
        return "l" + std::to_string(c.layers) + "_h" +
               std::to_string(c.heads) + "_s" +
               std::to_string(
                   static_cast<int>(c.sparsity * 100)) +
               "_b" + std::to_string(c.batch);
    });

TEST(ModelExecutor, BitwiseDeterministicAcrossParallelRuns)
{
    const auto m = testModel(4, 6, 64);
    const auto plan = buildModelPlan(m, makePipelineConfig(0.9, false));
    Rng rng(11);
    const ExecutorConfig ecfg{.numClasses = 8};
    const ModelWeights w = ModelWeights::random(m, 0, 8, rng);
    const auto input =
        Matrix::randomNormal(64, m.stages[0].embedDim, rng);

    ThreadPool pool(4);
    const KernelEngine opt({.tier = KernelTier::Optimized,
                            .rowPanel = 8,
                            .minParallelMacs = 1},
                           &pool);

    ModelExecutor exec(&plan, ModelWeights(w), ecfg, &opt);
    const Matrix first = exec.forward(input);
    EXPECT_GT(opt.stats().parallelLaunches, 0u);
    for (int run = 0; run < 6; ++run) {
        const Matrix again = exec.forward(input);
        EXPECT_TRUE(again == first) << "run " << run;
    }

    // A fresh executor (fresh arena, warm engine) agrees bitwise too.
    ModelExecutor exec2(&plan, ModelWeights(w), ecfg, &opt);
    EXPECT_TRUE(exec2.forward(input) == first);
}

TEST(ModelExecutor, MaskScanHappensOnlyAtScheduleBuild)
{
    const auto m = testModel(2, 3, 48);
    const auto plan = buildModelPlan(m, makePipelineConfig(0.9, false));
    Rng rng(13);
    const ModelWeights w = ModelWeights::random(m, 0, 4, rng);

    const KernelEngine opt({.tier = KernelTier::Optimized});
    ModelExecutor exec(&plan, ModelWeights(w),
                       ExecutorConfig{.numClasses = 4}, &opt);

    std::vector<Matrix> inputs;
    for (size_t b = 0; b < 3; ++b)
        inputs.push_back(
            Matrix::randomNormal(48, m.stages[0].embedDim, rng));

    ExecTrace trace;
    (void)exec.forwardBatch(inputs, &trace);
    // Execution runs from the Schedule IR's prebuilt layouts: the
    // masks were scanned exactly once, at schedule build, and the
    // optimized attention kernels ran from them — for any batch size.
    EXPECT_GT(trace.dispatch.sddmmCsr + trace.dispatch.sddmmCsc, 0u);

    // The schedule the executor built carries every head's layout.
    const auto &sched = exec.schedule();
    ASSERT_EQ(sched.layers.size(), m.totalLayers());
    for (const auto &ls : sched.layers)
        for (const auto &hs : ls.heads)
            EXPECT_EQ(hs.maskNnz(),
                      plan.planOf(ls.layer, hs.head).mask.nnz());
}

TEST(ModelExecutor, MultiStagePyramidMatchesOracle)
{
    model::VitModelConfig m;
    m.name = "test-pyramid";
    m.stages = {{2, 48, 3, 8, 24, 2}, {2, 16, 3, 8, 24, 2}};
    const auto plan = buildModelPlan(m, makePipelineConfig(0.8, false));

    Rng rng(29);
    const size_t num_classes = 8;
    const ModelWeights w =
        ModelWeights::random(m, 0, num_classes, rng);
    const auto input =
        Matrix::randomNormal(48, m.stages[0].embedDim, rng);

    ThreadPool pool(2);
    const KernelEngine opt(
        {.tier = KernelTier::Optimized, .minParallelMacs = 1},
        &pool);
    ModelExecutor exec(&plan, ModelWeights(w),
                       ExecutorConfig{.numClasses = num_classes},
                       &opt);

    const Matrix got = exec.forward(input);
    const Matrix want =
        oracleForward(plan, exec.weights(), input, num_classes);
    expectLogitsClose(got, want, m.totalLayers(), "pyramid logits");
}

TEST(ModelExecutor, ForwardAndBatchAgreeBitwise)
{
    const auto m = testModel(2, 3, 48);
    const auto plan = buildModelPlan(m, makePipelineConfig(0.9, false));
    Rng rng(31);
    const ModelWeights w = ModelWeights::random(m, 0, 4, rng);
    const KernelEngine opt({.tier = KernelTier::Optimized});
    ModelExecutor exec(&plan, ModelWeights(w),
                       ExecutorConfig{.numClasses = 4}, &opt);

    std::vector<Matrix> inputs;
    for (size_t b = 0; b < 2; ++b)
        inputs.push_back(
            Matrix::randomNormal(48, m.stages[0].embedDim, rng));

    const auto batched = exec.forwardBatch(inputs);
    for (size_t b = 0; b < inputs.size(); ++b)
        EXPECT_TRUE(exec.forward(inputs[b]) == batched[b])
            << "sample " << b;
}

TEST(ModelExecutor, HeadTracesOffLeavesOnlyLayerRecords)
{
    const auto m = testModel(2, 3, 32);
    const auto plan = buildModelPlan(m, makePipelineConfig(0.9, false));
    Rng rng(5);
    const KernelEngine opt({.tier = KernelTier::Optimized});
    ModelExecutor exec(
        &plan, ModelWeights::random(m, 0, 4, rng),
        ExecutorConfig{.numClasses = 4, .collectHeadTraces = false},
        &opt);
    ExecTrace trace;
    (void)exec.forward(
        Matrix::randomNormal(32, m.stages[0].embedDim, rng), &trace);
    ASSERT_EQ(trace.layers.size(), m.totalLayers());
    for (const LayerTrace &lt : trace.layers) {
        EXPECT_EQ(lt.heads, 3u);
        EXPECT_TRUE(lt.headTraces.empty());
        EXPECT_GT(lt.macs, 0u);
    }
}

// Death tests fork; give them a pool-free local engine so no
// thread (shared ThreadPool included) is alive at fork time.
TEST(ModelExecutorDeath, MissingHeadPlanPanics)
{
    const KernelEngine eng({.tier = KernelTier::Reference});
    const auto m = testModel(2, 3, 32);
    auto plan = buildModelPlan(m, makePipelineConfig(0.9, false));
    plan.heads.pop_back();
    Rng rng(37);
    ModelWeights w = ModelWeights::random(m, 0, 4, rng);
    EXPECT_DEATH(ModelExecutor(&plan, std::move(w),
                               ExecutorConfig{.numClasses = 4}, &eng),
                 "missing plan");
}

TEST(ModelExecutorDeath, WrongInputShapePanics)
{
    const KernelEngine eng({.tier = KernelTier::Reference});
    const auto m = testModel(2, 3, 32);
    const auto plan = buildModelPlan(m, makePipelineConfig(0.9, false));
    Rng rng(41);
    ModelExecutor exec(&plan,
                       ModelWeights::random(m, 0, 4, rng),
                       ExecutorConfig{.numClasses = 4}, &eng);
    const auto bad = Matrix::randomNormal(7, 5, rng);
    EXPECT_DEATH((void)exec.forward(bad), "shape mismatch");
}

} // namespace
} // namespace vitcod::core::model_exec
