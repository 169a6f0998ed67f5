/**
 * @file
 * ServerStats: bucketed percentiles against exact ones, per-backend
 * counters, utilization math, plan-latency normalization, and
 * concurrent recording (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/server_stats.h"

namespace vitcod::serve {
namespace {

InferenceResponse
respWith(double wall, double queue, double sim)
{
    InferenceResponse r;
    r.wallLatencySeconds = wall;
    r.queueSeconds = queue;
    r.simSeconds = sim;
    return r;
}

TEST(ServerStats, EmptySnapshotIsZero)
{
    ServerStats st;
    const auto s = st.snapshot(1.0);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_DOUBLE_EQ(s.throughputRps, 0.0);
    EXPECT_DOUBLE_EQ(s.wallP99, 0.0);
    EXPECT_TRUE(s.plans.empty());
    EXPECT_DOUBLE_EQ(s.meanQueueDepth, 0.0);
    EXPECT_DOUBLE_EQ(s.maxQueueDepth, 0.0);
}

/** Exact rank-ceil(p*n) order statistic of @p v (copied). */
double
exactPercentile(std::vector<double> v, double p)
{
    const auto idx =
        static_cast<size_t>(std::ceil(p * double(v.size()))) - 1;
    std::nth_element(v.begin(),
                     v.begin() + static_cast<std::ptrdiff_t>(idx),
                     v.end());
    return v[idx];
}

TEST(ServerStats, BucketPercentilesBoundExactOnes)
{
    // Log-normal latencies in each currency; the bucketed estimate is
    // the containing bucket's upper bound, so it may read high by at
    // most one bucket ratio and never above the observed max.
    constexpr size_t kSamples = 100000;
    Rng rng(20231);
    std::vector<double> wall, queue, sim;
    ServerStats st;
    double wallSum = 0;
    for (size_t i = 0; i < kSamples; ++i) {
        wall.push_back(5e-3 * std::exp(0.5 * rng.normal()));
        queue.push_back(1e-3 * std::exp(1.0 * rng.normal()));
        sim.push_back(1e-4 * std::exp(0.25 * rng.normal()));
        wallSum += wall.back();
        st.recordResponse(respWith(wall.back(), queue.back(),
                                   sim.back()));
    }
    const auto s = st.snapshot(10.0);
    EXPECT_EQ(s.completed, kSamples);
    EXPECT_DOUBLE_EQ(s.throughputRps, kSamples / 10.0);
    EXPECT_DOUBLE_EQ(s.wallMean, wallSum / kSamples);
    EXPECT_DOUBLE_EQ(s.wallMax,
                     *std::max_element(wall.begin(), wall.end()));

    const double ratio = std::exp2(0.25);
    const auto check = [&](const std::vector<double> &v, double p,
                           double got) {
        SCOPED_TRACE(p);
        const double exact = exactPercentile(v, p);
        EXPECT_GE(got, exact);
        EXPECT_LE(got, exact * ratio);
        EXPECT_LE(got, *std::max_element(v.begin(), v.end()));
    };
    check(wall, 0.50, s.wallP50);
    check(wall, 0.95, s.wallP95);
    check(wall, 0.99, s.wallP99);
    check(queue, 0.50, s.queueP50);
    check(queue, 0.95, s.queueP95);
    check(queue, 0.99, s.queueP99);
    check(sim, 0.50, s.simP50);
    check(sim, 0.95, s.simP95);
    check(sim, 0.99, s.simP99);
}

TEST(ServerStats, SingleSamplePercentiles)
{
    ServerStats st;
    st.recordResponse(respWith(0.25, 0.125, 0.5));
    const auto s = st.snapshot(1.0);
    EXPECT_DOUBLE_EQ(s.wallP50, 0.25);
    EXPECT_DOUBLE_EQ(s.wallP99, 0.25);
    EXPECT_DOUBLE_EQ(s.queueP95, 0.125);
    EXPECT_DOUBLE_EQ(s.simP50, 0.5);
}

TEST(ServerStats, BackendCountersAndUtilization)
{
    ServerStats st;
    st.registerBackend(0, "ViTCoD");
    st.registerBackend(1, "CPU");

    st.recordBatch(/*worker=*/0, /*batch_size=*/4,
                   /*sim_seconds=*/0.2, /*switch_seconds=*/0.05,
                   /*switched=*/true, /*wall_seconds=*/0.01,
                   /*busy_ticks=*/1000, /*energy_joules=*/2.0);
    st.recordBatch(0, 2, 0.1, 0.0, false, 0.01, 1500, 1.0);
    st.recordBatch(1, 1, 0.4, 0.0, false, 0.02, 400, 4.0);

    const auto s = st.snapshot(/*elapsed=*/1.0);
    ASSERT_EQ(s.backends.size(), 2u);

    const auto &v = s.backends[0];
    EXPECT_EQ(v.name, "ViTCoD");
    EXPECT_EQ(v.batches, 2u);
    EXPECT_EQ(v.requests, 6u);
    EXPECT_EQ(v.planSwitches, 1u);
    EXPECT_NEAR(v.busySimSeconds, 0.3, 1e-12);
    EXPECT_NEAR(v.switchSimSeconds, 0.05, 1e-12);
    EXPECT_EQ(v.busyTicks, 1500u);
    EXPECT_NEAR(v.simUtilization, 0.35, 1e-12);
    EXPECT_NEAR(v.wallUtilization, 0.02, 1e-12);

    EXPECT_NEAR(s.meanBatchSize, (4 + 2 + 1) / 3.0, 1e-12);
    EXPECT_NEAR(s.totalEnergyJoules, 7.0, 1e-12);
}

TEST(ServerStats, QueueDepthSamples)
{
    ServerStats st;
    st.sampleQueueDepth(2);
    st.sampleQueueDepth(4);
    st.sampleQueueDepth(9);
    const auto s = st.snapshot(1.0);
    EXPECT_NEAR(s.meanQueueDepth, 5.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.maxQueueDepth, 9.0);
}

TEST(ServerStats, PredictedVsMeasuredPerPlan)
{
    ServerStats st;
    // Plan A: prediction 0.010s, two batches measuring 0.012/0.008.
    st.recordPlanBatch("A", 0.010, 0.012, 2);
    st.recordPlanBatch("A", 0.010, 0.008, 2);
    // Plan B: prediction matches measurement exactly (a simulator
    // backend replaying the schedule's own cost).
    st.recordPlanBatch("B", 0.020, 0.020, 3);

    const auto s = st.snapshot(1.0);
    ASSERT_EQ(s.plans.size(), 2u);
    const auto &a = s.plans[0];
    EXPECT_EQ(a.key, "A");
    EXPECT_DOUBLE_EQ(a.predictedSeconds, 0.010);
    EXPECT_EQ(a.requests, 4u);
    EXPECT_NEAR(a.measuredMeanSeconds, 0.010, 1e-12);
    EXPECT_NEAR(a.ratio(), 1.0, 1e-9);

    const auto &b = s.plans[1];
    EXPECT_EQ(b.key, "B");
    EXPECT_EQ(b.requests, 3u);
    EXPECT_NEAR(b.ratio(), 1.0, 1e-12);
}

TEST(ServerStats, PlanLatencyRatioHandlesZeroPrediction)
{
    StatsSnapshot::PlanLatency pl;
    pl.measuredMeanSeconds = 1.0;
    EXPECT_DOUBLE_EQ(pl.ratio(), 0.0);
}

TEST(ServerStats, PlanPredictionIsRequestWeightedMean)
{
    // Both sides of the ratio use the same normalization: a
    // request-weighted mean across batches. A plan whose prediction
    // changes between batches (e.g. after a re-compile) must not
    // report only the last batch's prediction.
    ServerStats st;
    st.recordPlanBatch("A", /*predicted=*/0.010, /*measured=*/0.010,
                       /*requests=*/1);
    st.recordPlanBatch("A", /*predicted=*/0.040, /*measured=*/0.040,
                       /*requests=*/3);

    const auto s = st.snapshot(1.0);
    ASSERT_EQ(s.plans.size(), 1u);
    const auto &a = s.plans[0];
    EXPECT_EQ(a.requests, 4u);
    // (0.010*1 + 0.040*3) / 4, not 0.040.
    EXPECT_NEAR(a.predictedSeconds, 0.0325, 1e-12);
    EXPECT_NEAR(a.measuredMeanSeconds, 0.0325, 1e-12);
    EXPECT_NEAR(a.ratio(), 1.0, 1e-12);
}

TEST(ServerStats, ZeroPredictionPlansStayFinite)
{
    // A plan priced at zero (degenerate schedule) must not produce
    // NaN/inf anywhere in the snapshot.
    ServerStats st;
    st.recordPlanBatch("Z", 0.0, 0.005, 2);

    const auto s = st.snapshot(1.0);
    ASSERT_EQ(s.plans.size(), 1u);
    EXPECT_DOUBLE_EQ(s.plans[0].predictedSeconds, 0.0);
    EXPECT_NEAR(s.plans[0].measuredMeanSeconds, 0.005, 1e-12);
    EXPECT_DOUBLE_EQ(s.plans[0].ratio(), 0.0);
}

TEST(ServerStats, ZeroRequestPlanBatchIsIgnoredInMeans)
{
    // recordPlanBatch with requests=0 (an empty dispatch) adds no
    // weight; the means stay those of the real batches.
    ServerStats st;
    st.recordPlanBatch("A", 0.010, 0.012, 2);
    st.recordPlanBatch("A", 0.999, 0.999, 0);

    const auto s = st.snapshot(1.0);
    ASSERT_EQ(s.plans.size(), 1u);
    EXPECT_EQ(s.plans[0].requests, 2u);
    EXPECT_NEAR(s.plans[0].predictedSeconds, 0.010, 1e-12);
    EXPECT_NEAR(s.plans[0].measuredMeanSeconds, 0.012, 1e-12);
}

TEST(ServerStats, PlansAreSortedByKeyAtSnapshot)
{
    // The accumulation map is unordered (O(1) hot path); the
    // snapshot must sort, so JSON/stats output is identical run over
    // run regardless of hash order or insertion order.
    ServerStats st;
    st.recordPlanBatch("b", 0.01, 0.01, 1);
    st.recordPlanBatch("a", 0.01, 0.01, 1);
    st.recordPlanBatch("c", 0.01, 0.01, 1);

    const auto s1 = st.snapshot(1.0);
    ASSERT_EQ(s1.plans.size(), 3u);
    EXPECT_EQ(s1.plans[0].key, "a");
    EXPECT_EQ(s1.plans[1].key, "b");
    EXPECT_EQ(s1.plans[2].key, "c");

    // A second stats object fed in a different order snapshots to
    // the same sequence.
    ServerStats st2;
    st2.recordPlanBatch("c", 0.01, 0.01, 1);
    st2.recordPlanBatch("b", 0.01, 0.01, 1);
    st2.recordPlanBatch("a", 0.01, 0.01, 1);
    const auto s2 = st2.snapshot(1.0);
    ASSERT_EQ(s2.plans.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(s2.plans[i].key, s1.plans[i].key);
}

TEST(ServerStats, AdmissionCountersAndShedRate)
{
    ServerStats st;
    for (int i = 0; i < 6; ++i)
        st.recordAdmission(AdmissionDecision::Admit);
    for (int i = 0; i < 2; ++i)
        st.recordAdmission(AdmissionDecision::Deprioritize);
    for (int i = 0; i < 2; ++i)
        st.recordAdmission(AdmissionDecision::Shed);

    const auto s = st.snapshot(1.0);
    EXPECT_EQ(s.admitted, 8u); // deprioritized are admitted too
    EXPECT_EQ(s.deprioritized, 2u);
    EXPECT_EQ(s.shed, 2u);
    EXPECT_NEAR(s.shedRate, 0.2, 1e-12);
}

TEST(ServerStats, ShedRateIsZeroWithoutDecisions)
{
    ServerStats st;
    const auto s = st.snapshot(1.0);
    EXPECT_EQ(s.admitted, 0u);
    EXPECT_DOUBLE_EQ(s.shedRate, 0.0);
}

TEST(ServerStats, ConcurrentRecordersAreConsistent)
{
    ServerStats st;
    st.registerBackend(0, "w0");
    st.registerBackend(1, "w1");

    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 2000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < kPerThread; ++i) {
                st.recordResponse(respWith(1e-3, 1e-4, 1e-3));
                st.recordPlanBatch("P", 0.002, 0.002, 1);
                st.recordBatch(t % 2, 1, 1e-3, 0.0, false, 1e-3, 10,
                               0.01);
                st.sampleQueueDepth(i % 8);
            }
        });
    for (auto &th : threads)
        th.join();

    const auto s = st.snapshot(1.0);
    EXPECT_EQ(s.completed, kThreads * kPerThread);
    ASSERT_EQ(s.plans.size(), 1u);
    EXPECT_EQ(s.plans[0].requests, kThreads * kPerThread);
    EXPECT_NEAR(s.plans[0].ratio(), 1.0, 1e-9);
    EXPECT_EQ(s.backends[0].batches + s.backends[1].batches,
              kThreads * kPerThread);
    EXPECT_NEAR(s.meanQueueDepth, 3.5, 1e-9);
}

} // namespace
} // namespace vitcod::serve
