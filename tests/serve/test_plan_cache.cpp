/**
 * @file
 * PlanCache: hit/miss accounting, plan sharing, LRU eviction, and
 * single-compilation under concurrent first requests.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "accel/compiler.h"
#include "dse/pareto.h"
#include "serve/plan_cache.h"

namespace vitcod::serve {
namespace {

PlanKey
tinyKey(double sparsity)
{
    PlanKey k;
    k.model = "DeiT-Tiny";
    k.sparsity = sparsity;
    k.useAe = true;
    k.endToEnd = false;
    return k;
}

TEST(PlanCache, MissThenHitSharesThePlan)
{
    PlanCache cache;
    const auto a = cache.get(tinyKey(0.9));
    const auto b = cache.get(tinyKey(0.9));
    EXPECT_EQ(a.get(), b.get());

    const auto st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, CompiledPlanIsPopulated)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey(0.9));
    EXPECT_FALSE(cp->plan.heads.empty());
    EXPECT_GT(cp->weightLoadSeconds, 0.0);
    EXPECT_GT(cache.stats().compileWallSeconds, 0.0);
}

TEST(PlanCache, DistinctKeysBuildDistinctPlans)
{
    PlanCache cache;
    const auto a = cache.get(tinyKey(0.7));
    const auto b = cache.get(tinyKey(0.9));
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity)
{
    PlanCache cache({}, /*capacity=*/2);
    cache.get(tinyKey(0.5)); // A
    cache.get(tinyKey(0.6)); // B
    cache.get(tinyKey(0.5)); // A again -> B is now LRU
    cache.get(tinyKey(0.7)); // C -> evicts B

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);

    // B was evicted: a fresh lookup misses (and displaces A, the
    // least recently used of the residents {C, A}).
    cache.get(tinyKey(0.6));
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    // C was most recently used before B came back: it survived.
    cache.get(tinyKey(0.7));
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, ConcurrentFirstRequestsCompileOnce)
{
    PlanCache cache;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CompiledPlan>> got(kThreads);

    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back(
            [&, i] { got[i] = cache.get(tinyKey(0.9)); });
    for (auto &t : threads)
        t.join();

    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[0].get(), got[i].get());

    const auto st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(PlanCache, CompiledPlanCarriesScheduleAndSimEstimate)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey(0.9));

    // The schedule is the single compilation artifact: one layer
    // entry per block, one head schedule (with a runtime layout)
    // per head, and the same MAC totals the instruction stream and
    // the simulator report.
    ASSERT_EQ(cp->schedule.layers.size(),
              cp->plan.model.totalLayers());
    for (const auto &ls : cp->schedule.layers) {
        ASSERT_EQ(ls.heads.size(), 3u);
        for (const auto &hs : ls.heads)
            EXPECT_EQ(hs.layout.rowPtr.size(), hs.tokens + 1);
    }

    // For an attention-only plan the cached estimate is the
    // interpreter's own cost of the program compiled from the cached
    // schedule, cycle-for-cycle.
    const accel::Program prog =
        accel::Compiler(cache.hwConfig()).compile(cp->schedule);
    const accel::RunStats executed =
        accel::Interpreter(cache.hwConfig()).execute(prog);
    EXPECT_EQ(cp->simEstimate.cycles, executed.cycles);
    EXPECT_EQ(cp->simEstimate.macs, executed.macs);
    EXPECT_GT(cp->simEstimate.seconds, 0.0);
    EXPECT_GT(cp->simEstimate.energyJoules(), 0.0);
}

TEST(PlanCache, WeightBytesGrowWithModelSize)
{
    const auto tiny =
        modelWeightBytes(model::modelByName("DeiT-Tiny"), 2);
    const auto small =
        modelWeightBytes(model::modelByName("DeiT-Small"), 2);
    EXPECT_GT(tiny, 0u);
    EXPECT_GT(small, tiny);
}

TEST(PlanCache, PricesPlansOnAFrontierPointsHardware)
{
    // A one-point DSE frontier; its best-latency point applied onto
    // the default hardware config is how a search result is served.
    dse::ParetoFrontier f;
    f.evaluated = 1;
    dse::DsePoint p;
    p.hw.macLines = 128;
    p.hw.sBufferBytes = 32 * 1024;
    p.hw.bandwidthGBps = 153.6;
    p.obj = {1e-4, 1e-5, 2.5};
    ASSERT_TRUE(f.insert(p));

    const accel::ViTCoDConfig hw = f.bestLatency().hw.apply();
    EXPECT_EQ(hw.macArray.macLines, 128u);
    EXPECT_EQ(hw.sBufferBytes, 32u * 1024u);
    EXPECT_DOUBLE_EQ(hw.dram.bandwidthGBps, 153.6);
    // Non-swept knobs keep their base values.
    EXPECT_EQ(hw.qkvBufBytes, accel::ViTCoDConfig{}.qkvBufBytes);

    // A cache on the tuned hardware prices the same task cheaper
    // than the default (the tuned point has more lines + bandwidth).
    PlanCache tuned(hw);
    PlanCache stock;
    const auto cp_tuned = tuned.get(tinyKey(0.9));
    const auto cp_stock = stock.get(tinyKey(0.9));
    EXPECT_EQ(cp_tuned->schedule.params.macLines, 128u);
    EXPECT_LT(cp_tuned->simEstimate.seconds,
              cp_stock->simEstimate.seconds);
}

} // namespace
} // namespace vitcod::serve
