/**
 * @file
 * Tests of Algorithm 1 (split and conquer): pruning criteria,
 * reordering invariants, denser/sparser partition bookkeeping and
 * parameterized sparsity sweeps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/split_conquer.h"
#include "model/attention_gen.h"

namespace vitcod::core {
namespace {

linalg::Matrix
deitMap(size_t layer = 6, size_t head = 0)
{
    const model::AttentionMapGenerator gen(model::deitSmall());
    return gen.generate(layer, head);
}

SplitConquerConfig
targetCfg(double sparsity)
{
    SplitConquerConfig cfg;
    cfg.mode = PruneMode::TargetSparsity;
    cfg.targetSparsity = sparsity;
    return cfg;
}

TEST(Prune, TargetSparsityHitsExactRowBudget)
{
    const auto a = deitMap();
    const auto mask = pruneAttention(a, targetCfg(0.9));
    const size_t keep = 20; // round(0.1 * 197)
    for (size_t r = 0; r < mask.rows(); ++r)
        EXPECT_EQ(mask.nnzInRow(r), keep);
}

TEST(Prune, TargetSparsityKeepsTopEntries)
{
    const auto a = deitMap();
    const auto mask = pruneAttention(a, targetCfg(0.9));
    // Every kept entry must be >= every pruned entry in its row.
    for (size_t r = 0; r < a.rows(); ++r) {
        float min_kept = 1e9f;
        float max_pruned = -1e9f;
        for (size_t c = 0; c < a.cols(); ++c) {
            if (mask.get(r, c))
                min_kept = std::min(min_kept, a(r, c));
            else
                max_pruned = std::max(max_pruned, a(r, c));
        }
        EXPECT_GE(min_kept, max_pruned) << "row " << r;
    }
}

TEST(Prune, TargetSparsityBreaksTiesByLowerColumn)
{
    // keep = round(0.5 * 10) = 5 entries per row.
    constexpr size_t n = 10;
    linalg::Matrix a(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            a(r, c) = 0.1f;
    // Row 1: two clear winners, then a run of five equal values that
    // the budget cuts after its third member.
    const float row1[n] = {0.01f, 0.2f, 0.01f, 0.2f, 0.2f,
                           0.01f, 0.2f, 0.5f,  0.2f, 0.5f};
    // Row 2: negatives and signed zeros; +0 and -0 tie.
    const float row2[n] = {-1.0f, -0.0f, 0.0f, -0.0f, 0.3f,
                           -2.0f, 0.0f,  0.7f, -0.5f, -0.0f};
    for (size_t c = 0; c < n; ++c) {
        a(1, c) = row1[c];
        a(2, c) = row2[c];
    }

    const auto mask = pruneAttention(a, targetCfg(0.5));
    auto kept = [&](size_t r) {
        std::vector<size_t> cols;
        for (size_t c = 0; c < n; ++c)
            if (mask.get(r, c))
                cols.push_back(c);
        return cols;
    };
    const std::vector<size_t> prefix = {0, 1, 2, 3, 4};
    EXPECT_EQ(kept(0), prefix);
    EXPECT_EQ(kept(1), (std::vector<size_t>{1, 3, 4, 7, 9}));
    EXPECT_EQ(kept(2), (std::vector<size_t>{1, 2, 3, 4, 7}));
    for (size_t r = 3; r < n; ++r)
        EXPECT_EQ(kept(r), prefix) << "row " << r;
}

TEST(Prune, RejectsOutOfRangeTargetSparsity)
{
    const auto a = deitMap();
    EXPECT_DEATH(pruneAttention(a, targetCfg(-0.5)), "targetSparsity");
    EXPECT_DEATH(pruneAttention(a, targetCfg(1.5)), "targetSparsity");
    EXPECT_DEATH(pruneAttention(a, targetCfg(std::nan(""))),
                 "targetSparsity");
}

TEST(Prune, MassPerQueryReachesThreshold)
{
    const auto a = deitMap();
    SplitConquerConfig cfg;
    cfg.mode = PruneMode::MassPerQuery;
    cfg.massThreshold = 0.9;
    const auto mask = pruneAttention(a, cfg);
    for (size_t r = 0; r < a.rows(); ++r) {
        double kept = 0.0;
        for (size_t c = 0; c < a.cols(); ++c)
            if (mask.get(r, c))
                kept += a(r, c);
        EXPECT_GE(kept, 0.9 - 1e-6) << "row " << r;
    }
}

TEST(Prune, MassPerQueryIsMinimal)
{
    // Removing the smallest kept entry must drop the row below the
    // threshold: the kept set is minimal.
    const auto a = deitMap();
    SplitConquerConfig cfg;
    cfg.mode = PruneMode::MassPerQuery;
    cfg.massThreshold = 0.85;
    const auto mask = pruneAttention(a, cfg);
    for (size_t r = 0; r < a.rows(); ++r) {
        double kept = 0.0;
        float smallest = 1e9f;
        for (size_t c = 0; c < a.cols(); ++c) {
            if (mask.get(r, c)) {
                kept += a(r, c);
                smallest = std::min(smallest, a(r, c));
            }
        }
        EXPECT_LT(kept - smallest, 0.85 + 1e-6) << "row " << r;
    }
}

TEST(Prune, MassGlobalReachesThresholdOverall)
{
    const auto a = deitMap();
    SplitConquerConfig cfg;
    cfg.mode = PruneMode::MassGlobal;
    cfg.massThreshold = 0.8;
    const auto mask = pruneAttention(a, cfg);
    double kept = 0.0, total = 0.0;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c) {
            total += a(r, c);
            if (mask.get(r, c))
                kept += a(r, c);
        }
    EXPECT_GE(kept / total, 0.8 - 1e-6);
}

TEST(Prune, HigherMassThresholdKeepsMore)
{
    const auto a = deitMap();
    SplitConquerConfig lo;
    lo.mode = PruneMode::MassPerQuery;
    lo.massThreshold = 0.5;
    SplitConquerConfig hi = lo;
    hi.massThreshold = 0.95;
    EXPECT_LT(pruneAttention(a, lo).nnz(),
              pruneAttention(a, hi).nnz());
}

TEST(Reorder, PermIsBijection)
{
    const auto a = deitMap(11, 1);
    const auto plan = splitConquer(a, targetCfg(0.9));
    std::vector<bool> seen(plan.tokens, false);
    for (uint32_t p : plan.perm) {
        ASSERT_LT(p, plan.tokens);
        ASSERT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(Reorder, GlobalTokensFronted)
{
    const auto a = deitMap(11, 0); // deep layer: has global tokens
    SplitConquerConfig cfg = targetCfg(0.9);
    const auto mask0 = pruneAttention(a, cfg);
    const auto reo = reorderTokens(mask0, cfg);
    const double theta = effectiveDenseThreshold(mask0, cfg);
    // Every fronted token was a dense column of the original mask;
    // every remaining token was not.
    for (size_t i = 0; i < reo.numGlobalTokens; ++i)
        EXPECT_GT(mask0.nnzInCol(reo.perm[i]), theta);
    for (size_t i = reo.numGlobalTokens; i < reo.perm.size(); ++i)
        EXPECT_LE(mask0.nnzInCol(reo.perm[i]), theta);
}

TEST(Reorder, StableVariantKeepsRelativeOrder)
{
    const auto a = deitMap(11, 0);
    SplitConquerConfig cfg = targetCfg(0.9);
    cfg.literalSwapReorder = false;
    const auto mask0 = pruneAttention(a, cfg);
    const auto reo = reorderTokens(mask0, cfg);
    for (size_t i = reo.numGlobalTokens + 1; i < reo.perm.size(); ++i)
        EXPECT_LT(reo.perm[i - 1], reo.perm[i]);
}

TEST(Plan, PermutedMaskPreservesNnz)
{
    const auto a = deitMap();
    const auto cfg = targetCfg(0.9);
    const auto mask0 = pruneAttention(a, cfg);
    const auto plan = splitConquer(a, cfg);
    EXPECT_EQ(plan.mask.nnz(), mask0.nnz());
}

TEST(Plan, DenserSparserPartitionCoversMask)
{
    const auto a = deitMap(9, 2);
    const auto plan = splitConquer(a, targetCfg(0.9));
    size_t denser = 0;
    for (size_t c = 0; c < plan.numGlobalTokens; ++c)
        denser += plan.mask.nnzInCol(c);
    EXPECT_EQ(plan.denserNnz, denser);
    EXPECT_EQ(plan.denserNnz + plan.sparserNnz, plan.mask.nnz());
    EXPECT_EQ(plan.sparserCsc.nnz(), plan.sparserNnz);
}

TEST(Plan, SparserCscMatchesMaskSlice)
{
    const auto a = deitMap(8, 1);
    const auto plan = splitConquer(a, targetCfg(0.85));
    ASSERT_LT(plan.numGlobalTokens, plan.tokens);
    const auto slice =
        plan.mask.sliceCols(plan.numGlobalTokens, plan.tokens);
    EXPECT_EQ(plan.sparserCsc.toMask(), slice);
}

TEST(Plan, RetainedMassConsistent)
{
    const auto a = deitMap();
    const auto plan = splitConquer(a, targetCfg(0.9));
    EXPECT_GT(plan.retainedMass, 0.0);
    EXPECT_LE(plan.retainedMass, 1.0 + 1e-9);
    // Keeping the top 10% of entries of a diagonal+global map must
    // retain well over half the mass.
    EXPECT_GT(plan.retainedMass, 0.5);
}

TEST(Plan, DenserRegionDenserThanSparser)
{
    const auto a = deitMap(11, 3);
    const auto plan = splitConquer(a, targetCfg(0.9));
    if (plan.numGlobalTokens == 0 ||
        plan.numGlobalTokens == plan.tokens) {
        GTEST_SKIP() << "degenerate split";
    }
    const double denser_density =
        static_cast<double>(plan.denserNnz) /
        static_cast<double>(plan.numGlobalTokens * plan.tokens);
    const double sparser_density =
        static_cast<double>(plan.sparserNnz) /
        static_cast<double>((plan.tokens - plan.numGlobalTokens) *
                            plan.tokens);
    EXPECT_GT(denser_density, 3.0 * sparser_density);
}

TEST(Plan, PruneOnlyHasIdentityPermAndNoGlobals)
{
    const auto a = deitMap();
    const auto plan = pruneOnly(a, targetCfg(0.9));
    EXPECT_EQ(plan.numGlobalTokens, 0u);
    for (uint32_t i = 0; i < plan.perm.size(); ++i)
        EXPECT_EQ(plan.perm[i], i);
    EXPECT_EQ(plan.denserNnz, 0u);
    EXPECT_EQ(plan.sparserNnz, plan.mask.nnz());
}

TEST(Plan, ReorderOnlyKeepsEverything)
{
    const auto a = deitMap(10, 0);
    const auto plan = reorderOnly(a, targetCfg(0.9));
    EXPECT_EQ(plan.mask.nnz(), plan.tokens * plan.tokens);
    EXPECT_DOUBLE_EQ(plan.sparsity, 0.0);
    EXPECT_NEAR(plan.retainedMass, 1.0, 1e-9);
    EXPECT_GT(plan.numGlobalTokens, 0u);
}

TEST(Plan, ReorderingImprovesRegularity)
{
    // After reordering, the leading-column block must be much denser
    // than the mask average (the Fig. 8 "clustered dense block").
    const auto a = deitMap(11, 0);
    const auto plan = splitConquer(a, targetCfg(0.9));
    if (plan.numGlobalTokens == 0)
        GTEST_SKIP() << "no global tokens in this head";
    const auto prof = sparse::profileMask(
        plan.mask, 10, 0.3, plan.numGlobalTokens);
    EXPECT_GT(prof.firstBlockDensity, 3.0 * prof.density);
}

/** Sparsity sweep: the plan must track the requested ratio. */
class SparsitySweep : public ::testing::TestWithParam<double>
{};

TEST_P(SparsitySweep, PlanSparsityMatchesTarget)
{
    const double target = GetParam();
    const auto a = deitMap(5, 1);
    const auto plan = splitConquer(a, targetCfg(target));
    // Row-quantized: 197 columns => +-1/197 resolution.
    EXPECT_NEAR(plan.sparsity, target, 0.01);
}

TEST_P(SparsitySweep, RetainedMassDecreasesWithSparsity)
{
    const double target = GetParam();
    const auto a = deitMap(5, 1);
    const auto lo = splitConquer(a, targetCfg(target));
    if (target + 0.05 < 1.0) {
        const auto hi = splitConquer(a, targetCfg(target + 0.05));
        EXPECT_GE(lo.retainedMass + 1e-9, hi.retainedMass);
    }
}

INSTANTIATE_TEST_SUITE_P(Ratios, SparsitySweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9,
                                           0.95));

TEST(Reorder, IdempotentOnReorderedMap)
{
    // Re-running split&conquer on the already-permuted map must
    // find the same number of global tokens and an equivalent
    // partition (the algorithm is a fixed point on its own output).
    const auto a = deitMap(11, 0);
    const auto cfg = targetCfg(0.9);
    const auto first = splitConquer(a, cfg);

    const linalg::Matrix a_perm = [&] {
        linalg::Matrix p(a.rows(), a.cols());
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c = 0; c < a.cols(); ++c)
                p(r, c) = a(first.perm[r], first.perm[c]);
        return p;
    }();
    const auto second = splitConquer(a_perm, cfg);
    EXPECT_EQ(second.numGlobalTokens, first.numGlobalTokens);
    EXPECT_EQ(second.mask.nnz(), first.mask.nnz());
    EXPECT_EQ(second.denserNnz, first.denserNnz);
}

TEST(Prune, GlobalAndPerQueryAgreeOnTotalMassKept)
{
    // Both mass criteria keep >= theta_p of total mass; the global
    // variant does it with the fewest entries overall.
    const auto a = deitMap(6, 2);
    SplitConquerConfig per_query;
    per_query.mode = PruneMode::MassPerQuery;
    per_query.massThreshold = 0.9;
    SplitConquerConfig global = per_query;
    global.mode = PruneMode::MassGlobal;
    const auto m_pq = pruneAttention(a, per_query);
    const auto m_gl = pruneAttention(a, global);
    EXPECT_LE(m_gl.nnz(), m_pq.nnz() + a.rows());
}

TEST(Prune, PerQueryNeverLeavesEmptyRows)
{
    const auto a = deitMap(0, 0);
    SplitConquerConfig cfg;
    cfg.mode = PruneMode::MassPerQuery;
    cfg.massThreshold = 0.5;
    const auto mask = pruneAttention(a, cfg);
    for (size_t r = 0; r < mask.rows(); ++r)
        EXPECT_GE(mask.nnzInRow(r), 1u) << "row " << r;
}

TEST(Plan, EffectiveThresholdCapsForDenseMasks)
{
    // A fully dense mask must classify every column as global.
    const auto a = deitMap(3, 0);
    const auto plan = splitConquer(a, targetCfg(0.0));
    EXPECT_EQ(plan.numGlobalTokens, plan.tokens);
    EXPECT_EQ(plan.sparserNnz, 0u);
}

} // namespace
} // namespace vitcod::core
