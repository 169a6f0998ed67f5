/**
 * @file
 * Metrics registry: counter/gauge/histogram semantics, log-bucket
 * geometry, quantile estimation, merge associativity/commutativity,
 * concurrent observation (run under TSan in CI), and golden
 * fixtures for the Prometheus text exposition and JSON snapshot.
 *
 * Regenerate the exposition goldens after an intentional format
 * change with `obs_test_metrics --update-goldens` (support/golden.h).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "support/golden.h"

namespace vitcod::obs {
namespace {

TEST(Metrics, CounterAndGaugeBasics)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("test_total");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    // Re-registration returns the same handle.
    EXPECT_EQ(&reg.counter("test_total"), &c);

    Gauge &g = reg.gauge("test_gauge");
    g.set(2.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Metrics, BucketGridIsFixedAndMonotonic)
{
    // Bucket index is a pure function of the value: independent of
    // any histogram instance, so shards always merge bucket-wise.
    EXPECT_EQ(Histogram::bucketOf(0.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(-1.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(Histogram::kMinValue / 2), 0u);

    double prev = 0.0;
    for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        const double ub = Histogram::bucketUpperBound(i);
        EXPECT_GT(ub, prev);
        prev = ub;
    }
    EXPECT_TRUE(std::isinf(
        Histogram::bucketUpperBound(Histogram::kBuckets - 1)));

    // A value lands in the bucket whose (lower, upper] range holds
    // it: bucketUpperBound(bucketOf(v)) >= v > the previous bound.
    for (double v : {1e-6, 1e-3, 0.5, 1.0, 123.0, 7e8}) {
        const size_t b = Histogram::bucketOf(v);
        EXPECT_GE(Histogram::bucketUpperBound(b), v);
        if (b > 1) {
            EXPECT_LT(Histogram::bucketUpperBound(b - 1), v);
        }
    }
}

TEST(Metrics, HistogramObservationsAndQuantiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.observe(i * 1e-3); // 1 ms .. 100 ms

    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_NEAR(s.sum, 5.050, 1e-9);
    EXPECT_DOUBLE_EQ(s.min, 1e-3);
    EXPECT_DOUBLE_EQ(s.max, 0.1);
    EXPECT_NEAR(s.mean(), 0.0505, 1e-9);

    // Log-bucketed quantiles are upper-bound estimates with relative
    // error bounded by the bucket ratio (2^(1/4) - 1 ~ 19%).
    EXPECT_NEAR(s.quantile(0.5), 0.050, 0.050 * 0.2);
    EXPECT_NEAR(s.quantile(0.99), 0.099, 0.099 * 0.2);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max);
    // Estimates never exceed the observed max.
    EXPECT_LE(s.quantile(0.999), s.max);
}

TEST(Metrics, EmptyHistogramSnapshotIsZero)
{
    const Histogram::Snapshot s = Histogram().snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

Histogram::Snapshot
snapshotOf(const std::vector<double> &values)
{
    Histogram h;
    for (double v : values)
        h.observe(v);
    return h.snapshot();
}

void
expectEqual(const Histogram::Snapshot &a, const Histogram::Snapshot &b)
{
    EXPECT_EQ(a.buckets, b.buckets);
    EXPECT_EQ(a.count, b.count);
    EXPECT_DOUBLE_EQ(a.sum, b.sum);
    EXPECT_DOUBLE_EQ(a.min, b.min);
    EXPECT_DOUBLE_EQ(a.max, b.max);
}

TEST(Metrics, MergeIsAssociativeAndCommutative)
{
    const auto a = snapshotOf({1e-4, 2e-4, 5.0});
    const auto b = snapshotOf({3e-3, 0.5});
    const auto c = snapshotOf({1e-6, 40.0, 41.0, 42.0});

    expectEqual(a.merged(b).merged(c), a.merged(b.merged(c)));
    expectEqual(a.merged(b), b.merged(a));

    // Merging equals observing the union stream directly.
    const auto direct =
        snapshotOf({1e-4, 2e-4, 5.0, 3e-3, 0.5, 1e-6, 40.0, 41.0,
                    42.0});
    expectEqual(a.merged(b).merged(c), direct);

    // Identity: merging an empty snapshot changes nothing.
    expectEqual(a.merged(Histogram::Snapshot{}), a);
    expectEqual(Histogram::Snapshot{}.merged(a), a);
}

TEST(Metrics, ConcurrentObservationLosesNothing)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("concurrent_total");
    Histogram &h = reg.histogram("concurrent_seconds");

    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.observe(1e-6 * static_cast<double>(t + 1));
            }
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, kThreads * kPerThread);
    EXPECT_DOUBLE_EQ(s.min, 1e-6);
    EXPECT_DOUBLE_EQ(s.max, 4e-6);
}

TEST(Metrics, SnapshotListsEverythingSorted)
{
    MetricsRegistry reg;
    reg.counter("b_total").inc(2);
    reg.counter("a_total").inc(1);
    reg.gauge("depth").set(7.0);
    reg.histogram("lat_seconds").observe(0.25);

    const MetricsSnapshot s = reg.snapshot();
    ASSERT_EQ(s.counters.size(), 2u);
    EXPECT_EQ(s.counters[0].name, "a_total");
    EXPECT_EQ(s.counters[1].name, "b_total");
    EXPECT_EQ(s.counters[1].value, 2u);
    ASSERT_EQ(s.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(s.gauges[0].value, 7.0);
    ASSERT_EQ(s.histograms.size(), 1u);
    EXPECT_EQ(s.histograms[0].hist.count, 1u);
}

TEST(Metrics, GlobalRegistryIsOneInstance)
{
    EXPECT_EQ(&metrics(), &MetricsRegistry::global());
    Counter &c =
        metrics().counter("obs_test_global_total", "test counter");
    c.inc();
    EXPECT_GE(c.value(), 1u);
}

/** Pinned registry for the exposition goldens. */
void
fillFixture(MetricsRegistry &reg)
{
    reg.counter("vitcod_requests_total", "Requests admitted").inc(42);
    reg.gauge("vitcod_queue_depth", "Scheduler queue depth").set(3.5);
    Histogram &h = reg.histogram("vitcod_latency_seconds",
                                 "Request wall latency");
    for (double v : {1e-3, 2e-3, 4e-3, 8e-3, 0.5})
        h.observe(v);
}

TEST(MetricsGolden, PrometheusExposition)
{
    MetricsRegistry reg;
    fillFixture(reg);
    std::ostringstream oss;
    reg.writePrometheus(oss);
    test::expectGolden(oss.str(), "obs_metrics.golden.prom");
}

TEST(MetricsGolden, JsonSnapshot)
{
    MetricsRegistry reg;
    fillFixture(reg);
    std::ostringstream oss;
    reg.writeJson(oss);
    test::expectGolden(oss.str(), "obs_metrics.golden.json");
}

} // namespace
} // namespace vitcod::obs

int
main(int argc, char **argv)
{
    return vitcod::test::goldenMain(argc, argv);
}
