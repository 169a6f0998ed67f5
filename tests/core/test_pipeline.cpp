/**
 * @file
 * Tests of the unified ViTCoD pipeline (Fig. 10).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "obs/trace.h"

namespace vitcod::core {
namespace {

TEST(Pipeline, PlanCoversEveryHead)
{
    const auto plan =
        buildModelPlan(model::deitTiny(), makePipelineConfig(0.9, true));
    EXPECT_EQ(plan.heads.size(), 12u * 3u);
    // planOf must find each (layer, head) pair.
    EXPECT_NO_FATAL_FAILURE(plan.planOf(0, 0));
    EXPECT_NO_FATAL_FAILURE(plan.planOf(11, 2));
}

TEST(Pipeline, AvgSparsityNearTarget)
{
    const auto plan =
        buildModelPlan(model::deitTiny(), makePipelineConfig(0.9, true));
    EXPECT_NEAR(plan.avgSparsity, 0.9, 0.01);
}

TEST(Pipeline, AeSummariesPerLayer)
{
    const auto plan = buildModelPlan(model::deitSmall(),
                                     makePipelineConfig(0.9, true));
    ASSERT_EQ(plan.ae.size(), 12u);
    for (const auto &l : plan.ae) {
        EXPECT_EQ(l.heads, 6u);
        EXPECT_EQ(l.compressed, 3u);
        EXPECT_GT(l.relErrorQ, 0.0);
        EXPECT_LT(l.relErrorQ, 0.5);
    }
    EXPECT_NEAR(plan.aeCompressionRatio(), 0.5, 1e-9);
}

TEST(Pipeline, AeDisabled)
{
    const auto plan = buildModelPlan(model::deitTiny(),
                                     makePipelineConfig(0.9, false));
    EXPECT_TRUE(plan.ae.empty());
    EXPECT_DOUBLE_EQ(plan.aeCompressionRatio(), 1.0);
    EXPECT_DOUBLE_EQ(plan.aeRelError, 0.0);
}

TEST(Pipeline, OddHeadCountRoundsBottleneckUp)
{
    // LeViT-192 stage 0 has 3 heads -> ceil(3/2) = 2.
    const auto plan = buildModelPlan(model::levit192(),
                                     makePipelineConfig(0.8, true));
    EXPECT_EQ(plan.ae[0].heads, 3u);
    EXPECT_EQ(plan.ae[0].compressed, 2u);
}

TEST(Pipeline, QualityEstimateNearBaselineAtNominalSparsity)
{
    // Paper Sec. VI-C: <1% drop at each model's operating point.
    for (const auto &m : model::coreSixModels()) {
        const auto plan = buildModelPlan(
            m, makePipelineConfig(m.nominalSparsity, true));
        EXPECT_GT(plan.estimatedQuality, m.baselineQuality - 1.0)
            << m.name;
        EXPECT_LE(plan.estimatedQuality, m.baselineQuality)
            << m.name;
    }
}

TEST(Pipeline, Deterministic)
{
    const auto a =
        buildModelPlan(model::deitTiny(), makePipelineConfig(0.9, true));
    const auto b =
        buildModelPlan(model::deitTiny(), makePipelineConfig(0.9, true));
    EXPECT_EQ(a.avgSparsity, b.avgSparsity);
    EXPECT_EQ(a.avgRetainedMass, b.avgRetainedMass);
    EXPECT_EQ(a.estimatedQuality, b.estimatedQuality);
    ASSERT_EQ(a.heads.size(), b.heads.size());
    EXPECT_EQ(a.heads[7].plan.mask, b.heads[7].plan.mask);
}

TEST(Pipeline, GlobalTokensPresentOnAverage)
{
    const auto plan = buildModelPlan(model::deitSmall(),
                                     makePipelineConfig(0.9, true));
    EXPECT_GT(plan.avgGlobalTokenFrac, 0.0);
    EXPECT_LT(plan.avgGlobalTokenFrac, 0.5);
}

TEST(Pipeline, HigherSparsityLowerQuality)
{
    const auto lo = buildModelPlan(model::deitBase(),
                                   makePipelineConfig(0.7, true));
    const auto hi = buildModelPlan(model::deitBase(),
                                   makePipelineConfig(0.95, true));
    EXPECT_GE(lo.estimatedQuality, hi.estimatedQuality);
}

TEST(Pipeline, LeViTStagesGetPlansWithMatchingTokens)
{
    const auto plan = buildModelPlan(model::levit128(),
                                     makePipelineConfig(0.8, true));
    EXPECT_EQ(plan.planOf(0, 0).tokens, 196u);
    EXPECT_EQ(plan.planOf(4, 0).tokens, 49u);
    EXPECT_EQ(plan.planOf(8, 0).tokens, 16u);
}

TEST(Pipeline, BuildEmitsPhaseSpans)
{
    obs::TraceSession &session = obs::TraceSession::instance();
    session.stop();
    session.start();
    (void)buildModelPlan(model::levit128(), makePipelineConfig(0.8, true));
    session.stop();
    std::ostringstream json;
    session.writeJson(json);
    for (const char *name :
         {"plan", "ae_fit", "generate", "split_conquer"}) {
        const std::string event = std::string("{\"name\": \"") + name +
                                  "\", \"cat\": \"core\"";
        EXPECT_NE(json.str().find(event), std::string::npos) << name;
    }
}

} // namespace
} // namespace vitcod::core
