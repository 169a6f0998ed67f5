/**
 * @file
 * End-to-end serving: a fixed request trace through a 2-worker pool.
 * Wall-clock timings are nondeterministic, but every *simulated*
 * quantity must be exactly reproducible run over run — that is the
 * deterministic contract the serving runtime inherits from the
 * simulators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "dse/pareto.h"
#include "serve/load_gen.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

namespace vitcod::serve {
namespace {

PlanKey
tinyKey()
{
    PlanKey k;
    k.model = "DeiT-Tiny";
    k.sparsity = 0.9;
    return k;
}

/** Collects responses from worker threads. */
struct Collector
{
    std::mutex lock;
    std::vector<InferenceResponse> responses;

    std::function<void(const InferenceResponse &)>
    callback()
    {
        return [this](const InferenceResponse &r) {
            std::lock_guard<std::mutex> g(lock);
            responses.push_back(r);
        };
    }
};

/** Two identical 2-worker ViTCoD runs of @p key, checked exactly. */
void
checkDeterministicSimAggregates(const PlanKey &key)
{
    SCOPED_TRACE(key.str());
    constexpr size_t kRequests = 32;

    // Ground truth: the plan's own schedule-priced estimate, from a
    // separately built cache.
    PlanCache reference;
    const auto cp = reference.get(key);
    const double single = cp->simEstimate.seconds;
    ASSERT_GT(single, 0.0);

    auto runOnce = [&](Collector &col) {
        ServerConfig cfg;
        cfg.backends = {"ViTCoD", "ViTCoD"};
        cfg.scheduler.maxBatch = 4;
        cfg.scheduler.maxWaitSeconds = 1e-3;

        InferenceServer server(cfg, col.callback());
        server.warmup({key});
        for (size_t i = 0; i < kRequests; ++i)
            server.submit(key);
        server.drain();
        auto snap = server.snapshot();
        auto cacheStats = server.planCacheStats();
        server.shutdown();
        return std::make_pair(snap, cacheStats);
    };

    Collector col1, col2;
    const auto [snap1, cache1] = runOnce(col1);
    const auto [snap2, cache2] = runOnce(col2);

    // All requests completed, split across exactly two workers.
    EXPECT_EQ(snap1.completed, kRequests);
    ASSERT_EQ(snap1.backends.size(), 2u);
    EXPECT_EQ(snap1.backends[0].requests + snap1.backends[1].requests,
              kRequests);

    // Every response carries the same marginal simulated latency,
    // equal to the independently computed single-run time.
    ASSERT_EQ(col1.responses.size(), kRequests);
    for (const auto &r : col1.responses) {
        EXPECT_DOUBLE_EQ(r.simSeconds, single);
        EXPECT_GE(r.wallLatencySeconds, 0.0);
        EXPECT_GE(r.queueSeconds, 0.0);
        EXPECT_LE(r.queueSeconds, r.wallLatencySeconds + 1e-12);
        EXPECT_GE(r.batchSize, 1u);
        EXPECT_LE(r.batchSize, 4u);
    }

    // Aggregate simulated busy time is batch-split-invariant.
    const double busy1 = snap1.backends[0].busySimSeconds +
                         snap1.backends[1].busySimSeconds;
    EXPECT_NEAR(busy1, static_cast<double>(kRequests) * single,
                1e-9);

    // Predicted-vs-measured per plan: the ViTCoD backend charges
    // the plan's simEstimate, so measurement equals the prediction
    // exactly, attention-only and end to end alike.
    ASSERT_EQ(snap1.plans.size(), 1u);
    EXPECT_EQ(snap1.plans[0].key, key.str());
    EXPECT_EQ(snap1.plans[0].requests, kRequests);
    EXPECT_DOUBLE_EQ(snap1.plans[0].predictedSeconds, single);
    EXPECT_EQ(snap1.plans[0].ratio(), 1.0);

    // Plan switches: a single-task trace switches each worker at
    // most once (cold load), and the switch cost matches the plan's.
    for (const auto &b : snap1.backends) {
        EXPECT_LE(b.planSwitches, 1u);
        EXPECT_NEAR(b.switchSimSeconds,
                    static_cast<double>(b.planSwitches) *
                        cp->weightLoadSeconds,
                    1e-12);
    }

    // The device-clock tick counter agrees with the simulated time
    // at the ViTCoD frequency, modulo one round-up per batch.
    for (const auto &b : snap1.backends) {
        const double expect_ticks =
            (b.busySimSeconds + b.switchSimSeconds) * 0.5e9;
        EXPECT_NEAR(static_cast<double>(b.busyTicks), expect_ticks,
                    static_cast<double>(b.batches) + 1.0);
    }

    // One compilation total: the warmup missed, everything after hit.
    EXPECT_EQ(cache1.misses, 1u);
    EXPECT_GE(cache1.hits, kRequests);
    EXPECT_GT(cache1.hitRate(), 0.95);

    // Run-over-run stability of the simulated aggregates.
    EXPECT_EQ(snap2.completed, snap1.completed);
    const double busy2 = snap2.backends[0].busySimSeconds +
                         snap2.backends[1].busySimSeconds;
    EXPECT_NEAR(busy2, busy1, 1e-12);
    EXPECT_EQ(cache2.misses, cache1.misses);
}

TEST(ServingE2E, DeterministicSimAggregatesOnTwoWorkers)
{
    PlanKey e2e = tinyKey();
    e2e.endToEnd = true;
    for (const PlanKey &key : {tinyKey(), e2e})
        checkDeterministicSimAggregates(key);
}

TEST(ServingE2E, HeterogeneousPoolServesMixedBurst)
{
    PlanKey deit = tinyKey();
    PlanKey levit;
    levit.model = "LeViT-128";
    levit.sparsity = 0.8;

    ServerConfig cfg;
    cfg.backends = {"ViTCoD", "CPU"};
    cfg.scheduler.maxBatch = 8;

    Collector col;
    InferenceServer server(cfg, col.callback());

    TrafficConfig traffic;
    traffic.ratePerSec = 1e6; // burst: arrivals in the past
    traffic.requests = 200;
    traffic.mix = {deit, levit};
    traffic.seed = 7;
    traffic.openLoop = false;

    const TrafficReport rep = runTraffic(server, traffic);
    EXPECT_EQ(rep.submitted, 200u);
    EXPECT_GT(rep.completionRps, 0.0);

    const auto snap = server.snapshot();
    EXPECT_EQ(snap.completed, 200u);
    ASSERT_EQ(snap.backends.size(), 2u);
    EXPECT_EQ(snap.backends[0].requests + snap.backends[1].requests,
              200u);

    std::set<std::string> served;
    for (const auto &r : col.responses)
        served.insert(r.backend);
    EXPECT_LE(served.size(), 2u);
    EXPECT_TRUE(served.count("ViTCoD") || served.count("CPU"));

    // Two tasks -> two compilations, everything else cache hits.
    const auto cacheStats = server.planCacheStats();
    EXPECT_EQ(cacheStats.misses, 2u);
    EXPECT_GT(cacheStats.hitRate(), 0.95);
}

TEST(ServingE2E, ServesOnAFrontierPointsHardware)
{
    // A DSE result reaches a server as its hardware config: the
    // frontier's best-latency point applied onto cfg.hw. It must
    // reach both the plan cache and the ViTCoD workers.
    dse::ParetoFrontier f;
    dse::DsePoint p;
    p.hw.macLines = 128;
    p.hw.bandwidthGBps = 153.6;
    p.obj = {1e-4, 1e-5, 3.0};
    ASSERT_TRUE(f.insert(p));

    ServerConfig stock_cfg;
    stock_cfg.backends = {"ViTCoD"};
    ServerConfig cfg = stock_cfg;
    cfg.hw = f.bestLatency().hw.apply(cfg.hw);

    PlanKey key;
    key.model = "DeiT-Tiny";
    const auto serveOne = [&key](const ServerConfig &c) {
        InferenceServer server(c);
        EXPECT_EQ(server.config().hw.macArray.macLines,
                  c.hw.macArray.macLines);
        server.warmup({key});
        server.submit(key);
        server.drain();
        const auto snap = server.snapshot();
        EXPECT_EQ(snap.completed, 1u);
        server.shutdown();
        return snap;
    };
    const auto tuned_snap = serveOne(cfg);
    const auto stock_snap = serveOne(stock_cfg);
    EXPECT_EQ(cfg.hw.macArray.macLines, 128u);
    EXPECT_DOUBLE_EQ(cfg.hw.dram.bandwidthGBps, 153.6);

    // The same task is simulated slower on default hardware than on
    // the hardware the frontier selected: in the cache's estimate
    // and in what the workers charged per request.
    PlanCache tuned(cfg.hw);
    PlanCache stock;
    EXPECT_LT(tuned.get(key)->simEstimate.seconds,
              stock.get(key)->simEstimate.seconds);
    EXPECT_LT(tuned_snap.simP50, stock_snap.simP50);
}

TEST(ServingE2E, ShutdownDrainsPendingWork)
{
    ServerConfig cfg;
    cfg.backends = {"ViTCoD"};
    cfg.scheduler.maxBatch = 64;

    Collector col;
    InferenceServer server(cfg, col.callback());
    server.warmup({tinyKey()});
    for (int i = 0; i < 10; ++i)
        server.submit(tinyKey());

    // Some requests may still be queued; shutdown must drain them.
    server.shutdown();
    EXPECT_EQ(col.responses.size(), 10u);
}

TEST(ServingE2E, ContinuousPolicyServesEverythingOnce)
{
    PlanKey deit = tinyKey();
    PlanKey levit;
    levit.model = "LeViT-128";
    levit.sparsity = 0.8;

    ServerConfig cfg;
    cfg.backends = {"ViTCoD", "ViTCoD"};
    cfg.scheduler.maxBatch = 4;
    cfg.scheduler.maxWaitSeconds = 1e-3;

    Collector col;
    InferenceServer server(cfg, col.callback());
    server.warmup({deit, levit});

    constexpr size_t kRequests = 120;
    std::set<uint64_t> ids;
    for (size_t i = 0; i < kRequests; ++i)
        ids.insert(server.submit(i % 3 ? deit : levit));
    server.drain();

    // Exactly-once completion with valid ids (no shed: admission is
    // off by default).
    ASSERT_EQ(col.responses.size(), kRequests);
    EXPECT_EQ(ids.size(), kRequests);
    EXPECT_FALSE(ids.count(0));
    std::set<uint64_t> doneIds;
    for (const auto &r : col.responses) {
        doneIds.insert(r.id);
        EXPECT_LE(r.batchSize, 4u);
        EXPECT_FALSE(r.deprioritized);
        EXPECT_GT(r.predictedServiceSeconds, 0.0);
    }
    EXPECT_EQ(doneIds, ids);

    // A disabled controller decides Admit for every request, so
    // `admitted` counts each accepted submit; only the grace-band
    // and shed counters stay zero.
    const auto snap = server.snapshot();
    EXPECT_EQ(snap.completed, kRequests);
    EXPECT_EQ(snap.admitted, snap.completed);
    EXPECT_EQ(snap.shed, 0u);
    EXPECT_EQ(snap.deprioritized, 0u);
}

TEST(ServingE2E, AdmissionShedsUnderRealtimeOverload)
{
    const PlanKey key = tinyKey();
    const double service = PlanCache().get(key)->simEstimate.seconds;
    ASSERT_GT(service, 0.0);

    // Pace workers so one request occupies ~1ms of wall time, then
    // submit a tight-loop burst far beyond what 2 workers can absorb
    // within the SLO: admission must shed, and every accounting path
    // (submit()==0, snapshot counters, traffic report) must agree.
    ServerConfig cfg;
    cfg.backends = {"ViTCoD", "ViTCoD"};
    cfg.scheduler.maxBatch = 8;
    cfg.realtimeFactor = 1e-3 / service;
    cfg.admission.enabled = true;
    cfg.admission.defaultSloSeconds = 10 * service;
    cfg.admission.shedMultiplier = 2.0;

    Collector col;
    InferenceServer server(cfg, col.callback());
    server.warmup({key});

    constexpr size_t kRequests = 500;
    size_t shed = 0;
    for (size_t i = 0; i < kRequests; ++i)
        if (server.submit(key) == 0)
            ++shed;
    server.drain();

    // The SLO admits ~20 predicted-exit requests per worker; a
    // 500-deep instantaneous burst must mostly shed.
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(col.responses.size(), kRequests - shed);

    const auto snap = server.snapshot();
    EXPECT_EQ(snap.shed, shed);
    EXPECT_EQ(snap.admitted + snap.shed, kRequests);
    EXPECT_EQ(snap.completed, kRequests - shed);
    EXPECT_NEAR(snap.shedRate,
                static_cast<double>(shed) / kRequests, 1e-12);

    // Deprioritized (grace-band) requests carry the flag end to end
    // and are served like any other: each completes exactly once.
    std::map<uint64_t, size_t> deprioritizedDone;
    for (const auto &r : col.responses)
        if (r.deprioritized)
            ++deprioritizedDone[r.id];
    EXPECT_EQ(deprioritizedDone.size(), snap.deprioritized);
    for (const auto &[id, n] : deprioritizedDone)
        EXPECT_EQ(n, 1u) << "request " << id;

    // Backlog fully retired once everything admitted completed.
    EXPECT_EQ(server.admission().inflight(), 0u);
    EXPECT_NEAR(server.admission().backlogSeconds(), 0.0, 1e-9);
}

TEST(ServingE2E, TrafficReportSeparatesOfferedAndCompletionRates)
{
    ServerConfig cfg;
    cfg.backends = {"ViTCoD"};

    InferenceServer server(cfg);

    TrafficConfig traffic;
    traffic.ratePerSec = 1e6; // burst mode: no pacing sleeps
    traffic.requests = 100;
    traffic.mix = {tinyKey()};
    traffic.openLoop = false;

    const TrafficReport rep = runTraffic(server, traffic);
    EXPECT_EQ(rep.submitted, 100u);
    EXPECT_EQ(rep.shed, 0u);
    EXPECT_DOUBLE_EQ(rep.shedRate, 0.0);

    // The submit window excludes drain time, so offered >= completion
    // and both are self-consistent with their own denominators.
    EXPECT_GT(rep.submitWindowSeconds, 0.0);
    EXPECT_GE(rep.durationSeconds, rep.submitWindowSeconds);
    EXPECT_NEAR(rep.offeredRps, 100.0 / rep.submitWindowSeconds,
                1e-6);
    EXPECT_NEAR(rep.completionRps, 100.0 / rep.durationSeconds,
                1e-6);
    EXPECT_GE(rep.offeredRps, rep.completionRps);
}

/** Count of histogram @p name in @p m (fails the test if absent). */
uint64_t
histogramCount(const obs::MetricsSnapshot &m, const std::string &name)
{
    for (const auto &h : m.histograms)
        if (h.name == name)
            return h.hist.count;
    ADD_FAILURE() << "no histogram " << name;
    return 0;
}

/** Submit @p n tiny-plan requests to @p server, drain, snapshot. */
StatsSnapshot
serveAndDrain(InferenceServer &server, size_t n)
{
    server.warmup({tinyKey()});
    for (size_t i = 0; i < n; ++i)
        EXPECT_NE(server.submit(tinyKey()), 0u);
    server.drain();
    return server.snapshot();
}

TEST(ServingE2E, TwoServersKeepSeparateMetrics)
{
    // Each server records into its own registry: serving numbers of
    // one server must not leak into another's snapshot in the same
    // process.
    ServerConfig cfg;
    cfg.backends = {"ViTCoD"};
    InferenceServer a(cfg);
    InferenceServer b(cfg);

    const StatsSnapshot sa = serveAndDrain(a, 12);
    const StatsSnapshot sb = serveAndDrain(b, 30);
    EXPECT_EQ(sa.completed, 12u);
    EXPECT_EQ(sb.completed, 30u);
    for (const StatsSnapshot *s : {&sa, &sb}) {
        EXPECT_EQ(histogramCount(s->metrics,
                                 "vitcod_serve_wall_latency_seconds"),
                  s->completed);
        EXPECT_EQ(histogramCount(s->metrics,
                                 "vitcod_serve_queue_depth"),
                  s->admitted);
    }
}

TEST(ServingE2E, MalformedKeysAreRejected)
{
    // Building any of these keys would stop the process (sparsity
    // assert, unknown-model fatal), so submit must refuse them first.
    ServerConfig cfg;
    cfg.backends = {"ViTCoD"};
    InferenceServer server(cfg);
    std::vector<PlanKey> bad(4, tinyKey());
    bad[0].sparsity = -0.5;
    bad[1].sparsity = 1.5;
    bad[2].sparsity = std::nan("");
    bad[3].model = "NoSuchModel";
    for (const PlanKey &k : bad) {
        EXPECT_FALSE(k.valid()) << k.str();
        EXPECT_EQ(server.submit(k), 0u) << k.str();
    }
    EXPECT_EQ(server.planCacheStats().misses, 0u) << "nothing built";

    EXPECT_NE(server.submit(tinyKey()), 0u);
    server.drain();
    const StatsSnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.rejected, 4u);
    EXPECT_EQ(s.shed, 0u);
    uint64_t counted = 0;
    for (const auto &c : s.metrics.counters)
        if (c.name == "vitcod_serve_requests_rejected_total")
            counted = c.value;
    EXPECT_EQ(counted, 4u);
}

TEST(ServingE2E, WarmupSkipsMalformedKeys)
{
    // warmup() builds plans eagerly, so it must apply submit()'s
    // guard: a malformed key is counted as rejected and builds
    // nothing, and the valid keys around it still warm the cache.
    ServerConfig cfg;
    cfg.backends = {"ViTCoD"};
    InferenceServer server(cfg);
    std::vector<PlanKey> keys(4, tinyKey());
    keys[1].sparsity = std::nan("");
    keys[2].sparsity = 1.5;
    keys[3].model = "NoSuchModel";
    server.warmup(keys);
    EXPECT_EQ(server.planCacheStats().misses, 1u) << "one valid key";
    EXPECT_EQ(server.snapshot().rejected, 3u);

    EXPECT_NE(server.submit(tinyKey()), 0u);
    server.drain();
    EXPECT_EQ(server.planCacheStats().misses, 1u) << "warm hit";
    EXPECT_EQ(server.snapshot().completed, 1u);
}

} // namespace
} // namespace vitcod::serve
