/**
 * @file
 * Serving backends price each plan once: the ViTCoD backend charges
 * the CompiledPlan's simEstimate, and an analytic Device is asked
 * for a plan's price only on its first batch per worker.
 */

#include <gtest/gtest.h>

#include <memory>

#include "serve/backend.h"
#include "serve/plan_cache.h"

namespace vitcod::serve {
namespace {

/** Counts how often the backend asks the device for a price. */
struct CallCounts
{
    int attention = 0;
    int endToEnd = 0;
};

class CountingDevice : public accel::Device
{
  public:
    explicit CountingDevice(CallCounts *counts) : counts_(counts) {}

    std::string name() const override { return "Counting"; }

    accel::RunStats
    runAttention(const core::ModelPlan &) const override
    {
        ++counts_->attention;
        accel::RunStats st;
        st.seconds = 1e-3;
        return st;
    }

    accel::RunStats
    runEndToEnd(const core::ModelPlan &) const override
    {
        ++counts_->endToEnd;
        accel::RunStats st;
        st.seconds = 4e-3;
        return st;
    }

  private:
    CallCounts *counts_;
};

CompiledPlan
bareCompiledPlan(bool end_to_end)
{
    CompiledPlan cp;
    cp.key.model = "DeiT-Tiny";
    cp.key.endToEnd = end_to_end;
    cp.weightLoadSeconds = 1e-6;
    return cp;
}

TEST(DeviceServeBackend, PricesEachPlanOncePerWorker)
{
    CallCounts counts;
    DeviceServeBackend backend(std::make_unique<CountingDevice>(&counts),
                               /*freq_ghz=*/1.0);
    const CompiledPlan attn = bareCompiledPlan(false);
    const CompiledPlan e2e = bareCompiledPlan(true);

    const auto first = backend.runBatch(attn, 2);
    const auto second = backend.runBatch(attn, 3);
    EXPECT_EQ(counts.attention, 1);
    EXPECT_EQ(counts.endToEnd, 0);
    EXPECT_DOUBLE_EQ(first.perRequestSeconds, 1e-3);
    EXPECT_DOUBLE_EQ(second.perRequestSeconds, 1e-3);
    EXPECT_TRUE(first.switched);
    EXPECT_FALSE(second.switched);

    backend.runBatch(e2e, 1);
    backend.runBatch(e2e, 1);
    EXPECT_EQ(counts.endToEnd, 1);

    // Switching back pays the weight load again, not a re-price.
    const auto back = backend.runBatch(attn, 1);
    EXPECT_TRUE(back.switched);
    EXPECT_DOUBLE_EQ(back.perRequestSeconds, 1e-3);
    EXPECT_EQ(counts.attention, 1);
}

TEST(ViTCoDServeBackend, ChargesTheCachedSimEstimate)
{
    PlanCache cache;
    const auto backend = makeServeBackend("ViTCoD", cache.hwConfig());
    for (bool end_to_end : {false, true}) {
        PlanKey key;
        key.model = "DeiT-Tiny";
        key.endToEnd = end_to_end;
        SCOPED_TRACE(key.str());
        const auto cp = cache.get(key);
        const accel::RunStats &est = cp->simEstimate;

        backend->runBatch(*cp, 1); // cold: pays the weight load
        const auto r = backend->runBatch(*cp, 1);
        ASSERT_FALSE(r.switched);
        EXPECT_EQ(r.perRequestSeconds, est.seconds);
        EXPECT_EQ(r.stats.seconds, est.seconds);
        EXPECT_EQ(r.stats.cycles, est.cycles);
        EXPECT_EQ(r.stats.macs, est.macs);
        EXPECT_EQ(r.stats.computeSeconds, est.computeSeconds);
        EXPECT_EQ(r.stats.dataMoveSeconds, est.dataMoveSeconds);
        EXPECT_EQ(r.stats.dramRead, est.dramRead);
        EXPECT_EQ(r.stats.dramWrite, est.dramWrite);
        EXPECT_EQ(r.stats.energyJoules(), est.energyJoules());
        EXPECT_EQ(r.stats.utilization, est.utilization);
    }
}

} // namespace
} // namespace vitcod::serve
