/**
 * @file
 * Schedule IR tests: builder invariants (the denser/sparser split
 * partitions every mask, allocations respect the array, runtime
 * layouts are well formed), text-serialization round-trips, build
 * determinism, and a golden fixture under tests/data/ pinning the
 * complete schedule of a tiny model — same --update-goldens flow as
 * the ExecTrace goldens:
 *
 *     schedule_test_schedule --update-goldens
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "core/schedule/builder.h"

namespace vitcod::core::schedule {
namespace {

bool g_update_goldens = false;

std::string
dataDir()
{
#ifdef VITCOD_TEST_DATA_DIR
    return std::string(VITCOD_TEST_DATA_DIR) + "/";
#else
    return "tests/data/";
#endif
}

constexpr const char *kScheduleGolden = "model_schedule.golden";

model::VitModelConfig
tinyModel()
{
    model::VitModelConfig m;
    m.name = "golden-tiny";
    m.stages = {{2, 32, 3, 8, 24, 2}};
    return m;
}

core::ModelPlan
planFor(const model::VitModelConfig &m, double sparsity, bool ae)
{
    return core::buildModelPlan(
        m, core::makePipelineConfig(sparsity, ae));
}

TEST(ScheduleBuilder, SplitPartitionsEveryMask)
{
    const auto m = tinyModel();
    const auto plan = planFor(m, 0.9, false);
    const BuilderConfig cfg;
    const ModelSchedule s = ScheduleBuilder(cfg).build(plan, /*e2e=*/false);

    ASSERT_EQ(s.layers.size(), m.totalLayers());
    for (const LayerSchedule &ls : s.layers) {
        ASSERT_EQ(ls.heads.size(), 3u);
        for (const HeadSchedule &hs : ls.heads) {
            const auto &p = plan.planOf(ls.layer, hs.head);
            // Denser + sparser nonzeros partition the mask, and the
            // runtime layout indexes exactly those nonzeros.
            EXPECT_EQ(hs.maskNnz(), p.mask.nnz());
            EXPECT_EQ(hs.layout.colIdx.size(), hs.maskNnz());
            ASSERT_EQ(hs.layout.rowPtr.size(), hs.tokens + 1);
            EXPECT_EQ(hs.layout.rowPtr.back(), hs.maskNnz());
            if (hs.layout.useCsc) {
                EXPECT_EQ(hs.layout.rowIdx.size(), hs.maskNnz());
                EXPECT_EQ(hs.layout.colPtr.size(), hs.tokens + 1);
            }
            // The builder's layout is exactly the engine's one
            // mask -> layout compression.
            EXPECT_EQ(hs.layout,
                      linalg::engine::buildMaskLayout(p.mask));
            EXPECT_EQ(hs.numGlobalTokens, p.numGlobalTokens);
        }
        // The priced engine workload exceeds the executed mask-nnz
        // MACs by exactly the denser region's zero padding.
        MacOps padding = 0;
        for (const HeadSchedule &hs : ls.heads)
            padding += (static_cast<MacOps>(hs.tokens) *
                            hs.numGlobalTokens -
                        hs.denserNnz) *
                       hs.headDim * 2;
        EXPECT_EQ(ls.attentionMacs(), ls.execMacs.attn + padding);
    }
}

TEST(ScheduleBuilder, LineAllocationRespectsArray)
{
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const ModelSchedule s =
        ScheduleBuilder().build(plan, /*e2e=*/true);
    for (const LayerSchedule &ls : s.layers) {
        EXPECT_LE(ls.sddmmDenserLines + ls.sddmmSparserLines,
                  s.params.macLines);
        EXPECT_LE(ls.spmmDenserLines + ls.spmmSparserLines,
                  s.params.macLines);
        EXPECT_GT(ls.windowRows, 0u);
        if (ls.sparserSddmmMacs > 0) {
            EXPECT_GT(ls.sddmmSparserCycles, 0u);
        }
        // End-to-end build populated the dense block.
        EXPECT_GT(ls.dense.projMacs, 0u);
        EXPECT_GT(ls.dense.lnElems, 0u);
        // AE on: decode work and a compression ratio below 1.
        EXPECT_TRUE(ls.aeOn);
        EXPECT_GT(ls.decodeMacs, 0u);
        EXPECT_LT(ls.aeRatio, 1.0);
    }
}

TEST(ScheduleBuilder, Deterministic)
{
    const auto plan = planFor(tinyModel(), 0.9, false);
    const ScheduleBuilder b;
    const ModelSchedule s1 = b.build(plan, true);
    const ModelSchedule s2 = b.build(plan, true);
    std::string why;
    EXPECT_TRUE(structurallyEqual(s1, s2, &why)) << why;
}

TEST(ScheduleSerialization, RoundTripsEverything)
{
    // AE on + end-to-end + NLP prediction: every field populated.
    BuilderConfig bc;
    bc.hw.dynamicMaskPrediction = true;
    const auto plan = planFor(tinyModel(), 0.9, true);
    const ModelSchedule s =
        ScheduleBuilder(bc).build(plan, /*e2e=*/true);

    std::stringstream ss;
    s.write(ss);
    const ModelSchedule back = ModelSchedule::read(ss);

    std::string why;
    EXPECT_TRUE(structurallyEqual(s, back, &why)) << why;
    EXPECT_EQ(back.modelName, s.modelName);
    EXPECT_EQ(back.params, s.params);
    EXPECT_EQ(back.attentionMacs(), s.attentionMacs());
    EXPECT_EQ(back.execMacs(), s.execMacs());
    ASSERT_EQ(back.layers.size(), s.layers.size());
    EXPECT_GT(back.layers[0].predictMacs, 0u);
    EXPECT_EQ(back.layers[0].heads[0].layout,
              s.layers[0].heads[0].layout);
}

TEST(ScheduleSerialization, RejectsGarbage)
{
    std::stringstream ss("not-a-schedule v1");
    EXPECT_DEATH((void)ModelSchedule::read(ss), "parse error");
}

TEST(ScheduleGolden, MatchesCheckedInFixture)
{
    const auto plan = planFor(tinyModel(), 0.9, false);
    const ModelSchedule s =
        ScheduleBuilder().build(plan, /*e2e=*/true);
    const std::string path = dataDir() + kScheduleGolden;

    if (g_update_goldens)
        s.writeFile(path);

    const ModelSchedule golden = ModelSchedule::readFile(path);
    std::string why;
    EXPECT_TRUE(structurallyEqual(s, golden, &why))
        << "schedule diverged from " << path << ": " << why
        << " (regenerate with --update-goldens if intentional)";
}

TEST(ScheduleBreakdown, MatchesAnalyticOnDenseGroups)
{
    const auto m = model::deitTiny();
    const auto plan = planFor(m, 0.9, false);
    const ModelSchedule s = ScheduleBuilder().build(plan, false);
    const model::Breakdown sched_b = s.breakdown();
    const model::Breakdown analytic = model::modelBreakdown(m);

    // Mask-independent groups agree with the analytic accounting
    // exactly; attention groups reflect the masks' actual nonzeros
    // (about 10% of dense at this operating point).
    EXPECT_DOUBLE_EQ(
        groupOf(sched_b, model::OpGroup::QkvProj).flops,
        groupOf(analytic, model::OpGroup::QkvProj).flops);
    EXPECT_DOUBLE_EQ(groupOf(sched_b, model::OpGroup::Mlp).flops,
                     groupOf(analytic, model::OpGroup::Mlp).flops);
    const double dense_attn =
        groupOf(analytic, model::OpGroup::AttnMatMul).flops;
    const double sched_attn =
        groupOf(sched_b, model::OpGroup::AttnMatMul).flops;
    EXPECT_GT(sched_attn, 0.0);
    EXPECT_LT(sched_attn, 0.2 * dense_attn);
}

TEST(ScheduleMath, LruMissesExactOnKnownPattern)
{
    sparse::BitMask m(8, 8);
    for (size_t i = 0; i < 8; ++i)
        m.set(i, i, true);
    EXPECT_EQ(lruQMisses(sparse::Csc::fromMask(m), 2), 8u);
    EXPECT_EQ(lruQMisses(sparse::Csc::fromMask(m), 0), 8u);

    // Two dense columns: window 1 re-misses every row on the second
    // column; window 4 holds all rows, so the second column hits.
    sparse::BitMask two_cols(4, 2);
    for (size_t r = 0; r < 4; ++r) {
        two_cols.set(r, 0, true);
        two_cols.set(r, 1, true);
    }
    EXPECT_EQ(lruQMisses(sparse::Csc::fromMask(two_cols), 1), 8u);
    EXPECT_EQ(lruQMisses(sparse::Csc::fromMask(two_cols), 4), 4u);
}

} // namespace
} // namespace vitcod::core::schedule

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            vitcod::core::schedule::g_update_goldens = true;
    return RUN_ALL_TESTS();
}
