/**
 * @file
 * Tests of the ViTCoD accelerator simulator: monotonicity in
 * sparsity, AE traffic savings, two-pronged allocation, Q-gather
 * modeling and bookkeeping invariants.
 */

#include <gtest/gtest.h>

#include "accel/vitcod_accel.h"
#include "core/pipeline.h"

namespace vitcod::accel {
namespace {

core::ModelPlan
planFor(const model::VitModelConfig &m, double sparsity, bool ae)
{
    return core::buildModelPlan(m,
                                core::makePipelineConfig(sparsity, ae));
}

TEST(ViTCoDAccel, AttentionLatencyMonotoneInSparsity)
{
    ViTCoDAccelerator acc;
    const auto lo = planFor(model::deitTiny(), 0.6, true);
    const auto hi = planFor(model::deitTiny(), 0.9, true);
    EXPECT_GT(acc.runAttention(lo).cycles,
              acc.runAttention(hi).cycles);
}

TEST(ViTCoDAccel, AeReducesDramTraffic)
{
    const auto with_ae = planFor(model::deitSmall(), 0.9, true);
    const auto without = planFor(model::deitSmall(), 0.9, false);
    ViTCoDAccelerator acc;
    const RunStats a = acc.runAttention(with_ae);
    const RunStats b = acc.runAttention(without);
    EXPECT_LT(a.dramRead, b.dramRead);
}

TEST(ViTCoDAccel, AeImprovesLatencyWhenBandwidthStarved)
{
    // Under an edge-class DRAM (1/6 of the paper's bandwidth) the
    // attention phases are traffic-bound, and halving Q/K movement
    // must win outright.
    ViTCoDConfig cfg;
    cfg.dram.bandwidthGBps = 12.8;
    ViTCoDAccelerator acc(cfg);
    const auto with_ae = planFor(model::deitBase(), 0.9, true);
    const auto without = planFor(model::deitBase(), 0.9, false);
    EXPECT_LT(acc.runAttention(with_ae).cycles,
              acc.runAttention(without).cycles);
}

TEST(ViTCoDAccel, AeNearNeutralAtFullBandwidth)
{
    // At the paper's 76.8 GB/s the 90% operating point is compute-
    // bound in this reproduction: the AE may cost a little latency
    // (decode engine) but must stay within 10%.
    ViTCoDAccelerator acc;
    const auto with_ae = planFor(model::deitBase(), 0.9, true);
    const auto without = planFor(model::deitBase(), 0.9, false);
    const double a =
        static_cast<double>(acc.runAttention(with_ae).cycles);
    const double b =
        static_cast<double>(acc.runAttention(without).cycles);
    EXPECT_LT(a, 1.10 * b);
}

TEST(ViTCoDAccel, LayerStatsSumConsistency)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const LayerAttentionStats st = acc.simulateAttentionLayer(plan, 0);
    EXPECT_EQ(st.total, st.sddmmCompute + st.softmaxCompute +
                            st.spmmCompute + st.prediction +
                            st.exposedMemory);
    EXPECT_GT(st.attentionMacs, 0u);
    EXPECT_GT(st.dramRead, 0u);
    EXPECT_GT(st.dramWrite, 0u);
}

TEST(ViTCoDAccel, TwoProngedBeatsMonolithic)
{
    const auto plan = planFor(model::deitSmall(), 0.9, true);
    ViTCoDAccelerator two;
    ViTCoDConfig mono_cfg;
    mono_cfg.twoPronged = false;
    mono_cfg.name = "ViTCoD-mono";
    ViTCoDAccelerator mono(mono_cfg);
    EXPECT_LT(two.runAttention(plan).cycles,
              mono.runAttention(plan).cycles);
}

TEST(ViTCoDAccel, LineAllocationUsesAllLines)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitBase(), 0.9, true);
    const LayerAttentionStats st =
        acc.simulateAttentionLayer(plan, 6);
    // Denser + sparser + decoder engines share all 64 lines.
    EXPECT_GT(st.denserLines, 0u);
    EXPECT_GT(st.sparserLines, 0u);
    EXPECT_LT(st.denserLines + st.sparserLines,
              acc.config().macArray.macLines + 1);
}

TEST(ViTCoDAccel, DenserLinesScaleWithGlobalWork)
{
    // More global tokens (denser work) => more denser lines.
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitBase(), 0.9, true);
    const auto shapes = model::attentionShapes(plan.model);
    // Deep layers have more global tokens than early ones.
    const auto early = acc.simulateAttentionLayer(plan, 0);
    const auto late =
        acc.simulateAttentionLayer(plan, shapes.size() - 1);
    double early_ngt = 0, late_ngt = 0;
    for (const auto &h : plan.heads) {
        if (h.layer == 0)
            early_ngt += static_cast<double>(h.plan.numGlobalTokens);
        if (h.layer == shapes.size() - 1)
            late_ngt += static_cast<double>(h.plan.numGlobalTokens);
    }
    if (late_ngt > 2.0 * early_ngt) {
        EXPECT_GE(late.denserLines, early.denserLines);
    }
}

TEST(ViTCoDAccel, QForwardingAvoidsGathersWhenReordered)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitSmall(), 0.9, true);
    for (size_t l = 0; l < 12; ++l) {
        const auto st = acc.simulateAttentionLayer(plan, l);
        // All heads have global tokens at this operating point, so
        // query-based forwarding removes every gather.
        bool all_have_globals = true;
        for (const auto &h : plan.heads)
            if (h.layer == l && h.plan.numGlobalTokens == 0)
                all_have_globals = false;
        if (all_have_globals) {
            EXPECT_EQ(st.qGatherMisses, 0u) << "layer " << l;
        }
    }
}

TEST(ViTCoDAccel, PruneOnlyPlansPayForGathers)
{
    // Build a prune-only plan manually: reuse the pipeline but strip
    // reordering by re-running splitConquer's pruneOnly per head.
    const model::AttentionMapGenerator gen(model::deitSmall());
    core::SplitConquerConfig sc;
    sc.mode = core::PruneMode::TargetSparsity;
    sc.targetSparsity = 0.9;

    auto plan = planFor(model::deitSmall(), 0.9, true);
    for (auto &h : plan.heads)
        h.plan = core::pruneOnly(gen.generate(h.layer, h.head), sc);

    ViTCoDAccelerator acc;
    const auto st = acc.simulateAttentionLayer(plan, 11);
    EXPECT_GT(st.qGatherMisses, 0u);
}

TEST(ViTCoDAccel, NlpModeAddsPredictionOverhead)
{
    ViTCoDConfig cfg;
    cfg.dynamicMaskPrediction = true;
    cfg.name = "ViTCoD-dyn";
    ViTCoDAccelerator dyn(cfg);
    ViTCoDAccelerator stat;
    const auto plan = planFor(model::bertBase(128), 0.9, true);
    const RunStats a = dyn.runAttention(plan);
    const RunStats b = stat.runAttention(plan);
    EXPECT_GT(a.cycles, b.cycles);
    EXPECT_GT(a.preprocessSeconds, 0.0);
    EXPECT_DOUBLE_EQ(b.preprocessSeconds, 0.0);
}

TEST(ViTCoDAccel, EndToEndLargerThanAttention)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    EXPECT_GT(acc.runEndToEnd(plan).cycles,
              acc.runAttention(plan).cycles);
}

TEST(ViTCoDAccel, TimingDecompositionSumsToTotal)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::levit128(), 0.8, true);
    const RunStats rs = acc.runAttention(plan);
    EXPECT_NEAR(rs.seconds,
                rs.computeSeconds + rs.dataMoveSeconds +
                    rs.preprocessSeconds,
                1e-12);
    EXPECT_GE(rs.dataMoveSeconds, 0.0);
}

TEST(ViTCoDAccel, UtilizationInUnitRange)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitBase(), 0.9, true);
    const RunStats rs = acc.runEndToEnd(plan);
    EXPECT_GT(rs.utilization, 0.0);
    EXPECT_LE(rs.utilization, 1.0);
}

TEST(ViTCoDAccel, EnergyHasAllComponents)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const RunStats rs = acc.runAttention(plan);
    EXPECT_GT(rs.energy.macPj, 0.0);
    EXPECT_GT(rs.energy.sramPj, 0.0);
    EXPECT_GT(rs.energy.dramPj, 0.0);
    EXPECT_GT(rs.energy.staticPj, 0.0);
}

TEST(ViTCoDAccel, Deterministic)
{
    ViTCoDAccelerator acc;
    const auto plan = planFor(model::levit192(), 0.8, true);
    const RunStats a = acc.runAttention(plan);
    const RunStats b = acc.runAttention(plan);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramRead, b.dramRead);
}

/** Sparsity sweep over the full hardware stack. */
class AccelSparsitySweep : public ::testing::TestWithParam<double>
{};

TEST_P(AccelSparsitySweep, MoreSparsityNeverSlower)
{
    const double s = GetParam();
    ViTCoDAccelerator acc;
    const auto lo = planFor(model::deitSmall(), s, true);
    const auto hi = planFor(model::deitSmall(), s + 0.05, true);
    EXPECT_GE(acc.runAttention(lo).cycles,
              acc.runAttention(hi).cycles);
}

INSTANTIATE_TEST_SUITE_P(Ratios, AccelSparsitySweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

} // namespace
} // namespace vitcod::accel
