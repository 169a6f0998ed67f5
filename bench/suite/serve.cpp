/**
 * @file
 * serve_burst: the InferenceServer under bursty 2x overload. Four
 * ViTCoD workers are paced to 1 ms of wall time per request
 * (capacity 4000 requests/s); continuous batching up to 8; SLO
 * admission at 20 service times with a 2x shed band. One generator
 * thread offers a seeded Markov on/off trace (8000 requests/s mean,
 * x8 bursts) open loop: each request is submitted at its due time
 * and timed from that due time to its completion callback.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "suite.h"
#include "serve/load_gen.h"
#include "serve/server.h"

namespace vitcod::suite {

namespace {

constexpr size_t kWorkers = 4;
constexpr double kServiceWallS = 1e-3;
constexpr double kOfferedRps = 8000.0;
/** Mean burst / idle dwell. Short enough that a 10 s run holds ~200
 *  burst cycles: the latency median then reflects the process, not
 *  how a seed's few long bursts happened to fall. */
constexpr double kMeanBurstS = 0.01;
constexpr double kMeanIdleS = 0.04;
/** Latency limit of goodput (the SLO's shed edge in wall time). */
constexpr double kLimitS = 0.040;

/** What the completion callback saw for one request id. */
struct Done
{
    std::atomic<uint32_t> count{0};
    double at = 0; //!< completion, seconds since the run epoch
    double queue = 0;
    double service = 0;
};

/** One open-loop phase: what the generator offered and saw. */
struct Phase
{
    double start = 0; //!< seconds since the run epoch
    std::vector<uint64_t> ids;
    std::vector<double> submit_s, lag_s;
    uint64_t offered = 0, shed = 0;
};

} // namespace

Report
runServe(const Options &opts)
{
    Report r;
    const auto epoch = Clock::now();
    const serve::PlanKey key{"DeiT-Tiny", 0.9, true, false};

    // The plan's simulated service time fixes the pacing factor, so
    // it is read once up front, outside the timed set-up.
    const double service =
        serve::PlanCache().get(key)->simEstimate.seconds;

    serve::ServerConfig cfg;
    cfg.backends.assign(kWorkers, "ViTCoD");
    cfg.realtimeFactor = kServiceWallS / service;
    cfg.scheduler.policy = serve::SchedulerPolicy::Continuous;
    cfg.scheduler.maxBatch = 8;
    cfg.scheduler.maxWaitSeconds = 5e-3;
    cfg.admission.enabled = true;
    cfg.admission.defaultSloSeconds = 20.0 * service;
    cfg.admission.shedMultiplier = 2.0;

    const double main_s = opts.smoke    ? opts.seconds
                          : opts.traced() ? opts.seconds * 0.6
                                          : opts.seconds;
    const double traced_s = opts.smoke ? opts.seconds : opts.seconds * 0.2;
    const auto n_main = static_cast<size_t>(kOfferedRps * main_s);
    const size_t n_traced =
        opts.traced() ? static_cast<size_t>(kOfferedRps * traced_s) : 0;

    serve::TrafficConfig traffic;
    traffic.process = serve::ArrivalProcess::MarkovOnOff;
    traffic.ratePerSec = kOfferedRps;
    traffic.burstRateMultiplier = 8.0;
    traffic.meanBurstSeconds = kMeanBurstS;
    traffic.meanIdleSeconds = kMeanIdleS;
    traffic.requests = n_main + n_traced;
    traffic.mix = {key};
    traffic.seed = opts.seed;
    const std::vector<double> arrivals =
        serve::generateArrivalTimes(traffic);

    // Admitted ids are consecutive from 1, so per-id records fit in
    // flat arrays sized by the offered count.
    std::vector<Done> done(traffic.requests + 1);
    std::vector<double> due_of(traffic.requests + 1, 0.0);
    std::atomic<uint64_t> stray{0};
    const bool drop_one = opts.injectFault;
    const auto on_done = [&](const serve::InferenceResponse &resp) {
        if (resp.id >= done.size()) {
            stray.fetch_add(1);
            return;
        }
        if (drop_one && resp.id == 1)
            return; // the injected fault: one completion goes missing
        Done &d = done[resp.id];
        d.at = secondsSince(epoch);
        d.queue = resp.queueSeconds;
        d.service = resp.wallLatencySeconds - resp.queueSeconds;
        d.count.fetch_add(1);
    };

    // Set-up: constructor (worker pool start) + warmup (plan build
    // and compile) — what a user waits for before the first request.
    std::unique_ptr<serve::InferenceServer> server;
    std::vector<double> setup_s;
    repeatSetup(opts, 5, [&](size_t) {
        server.reset();
        const auto t0 = Clock::now();
        server = std::make_unique<serve::InferenceServer>(cfg, on_done);
        server->warmup({key});
        setup_s.push_back(secondsSince(t0));
    });

    // Offer arrivals [first, first + n), rebased to start now.
    const auto offer = [&](size_t first, size_t n) {
        // Reserved up front so no vector regrows mid-run: peak RSS
        // then tracks the workload, not where a regrowth happened.
        Phase ph;
        ph.ids.reserve(n);
        ph.submit_s.reserve(n);
        ph.lag_s.reserve(n);
        const auto start = Clock::now();
        ph.start = std::chrono::duration<double>(start - epoch).count();
        for (size_t i = first; i < first + n; ++i) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                arrivals[i] - arrivals[first]));
            std::this_thread::sleep_until(due);
            ph.lag_s.push_back(secondsSince(due));
            double submit = 0;
            uint64_t id = 0;
            {
                Span req("serve.request", nullptr, i + 1);
                Span s("serve.submit", &submit, i + 1);
                id = server->submit(key);
            }
            ph.submit_s.push_back(submit);
            ++ph.offered;
            if (id == 0) {
                ++ph.shed;
                continue;
            }
            due_of[id] =
                std::chrono::duration<double>(due - epoch).count();
            ph.ids.push_back(id);
        }
        server->drain();
        return ph;
    };

    const Phase load = offer(0, n_main);

    // Output check: every admitted id completed exactly once.
    const auto check = [&](const Phase &ph) {
        r.attempted += ph.offered;
        for (uint64_t id : ph.ids)
            if (done[id].count.load() != 1)
                ++r.failed;
    };
    check(load);

    std::vector<double> lat_s, queue_s, service_s;
    lat_s.reserve(load.ids.size());
    queue_s.reserve(load.ids.size());
    service_s.reserve(load.ids.size());
    double last = load.start;
    size_t good = 0;
    for (uint64_t id : load.ids) {
        const Done &d = done[id];
        if (d.count.load() == 0)
            continue;
        const double lat = d.at - due_of[id];
        lat_s.push_back(lat);
        queue_s.push_back(d.queue);
        service_s.push_back(d.service);
        good += lat <= kLimitS ? 1 : 0;
        last = std::max(last, d.at);
    }
    // A shed request counts as a miss: it simply never adds to good.
    const double window = last - load.start;

    r.e2e("latency_p50_ms", median(lat_s) * 1e3, "ms");
    r.e2e("throughput_per_s", static_cast<double>(good) / window, "1/s");
    r.e2e("setup_s", median(setup_s), "s");

    if (opts.traced()) {
        std::vector<double> snap_ms;
        serve::StatsSnapshot snap;
        for (int i = 0; i < 5; ++i) {
            const auto t0 = Clock::now();
            snap = server->snapshot();
            snap_ms.push_back(secondsSince(t0) * 1e3);
        }
        const double hit_rate = server->planCacheStats().hitRate();

        double plan_s = 0;
        const std::vector<ChainSpec> chain = {
            {key.model.c_str(), key.sparsity, key.useAe, key.endToEnd}};
        const std::vector<core::ModelPlan> plans =
            buildPlans(chain, &plan_s);

        startTrace(opts);
        const Phase traced = offer(n_main, n_traced);
        replayChain(chain, plans, true, traced_s, r);
        finishTrace(opts);
        check(traced);
        std::vector<double> traced_lat;
        for (uint64_t id : traced.ids)
            if (done[id].count.load() != 0)
                traced_lat.push_back(done[id].at - due_of[id]);

        r.layer("serve.latency_p99_ms", percentile(lat_s, 0.99) * 1e3,
                "ms");
        r.layer("serve.submit_us_p50", median(load.submit_s) * 1e6, "us");
        r.layer("serve.submit_us_p99",
                percentile(load.submit_s, 0.99) * 1e6, "us");
        r.layer("serve.queue_wait_ms_p50", median(queue_s) * 1e3, "ms");
        r.layer("serve.queue_wait_ms_p99",
                percentile(queue_s, 0.99) * 1e3, "ms");
        r.layer("serve.service_ms_p50", median(service_s) * 1e3, "ms");
        r.layer("serve.batch_mean", snap.meanBatchSize, "count");
        r.layer("serve.queue_depth_max", snap.maxQueueDepth, "count");
        r.layer("serve.shed_frac",
                static_cast<double>(load.shed) /
                    static_cast<double>(load.offered),
                "fraction");
        r.layer("serve.deprioritized", static_cast<double>(snap.deprioritized),
                "count");
        r.layer("serve.plan_cache_hit_rate", hit_rate, "fraction");
        r.layer("serve.snapshot_ms", median(snap_ms), "ms");
        r.layer("serve.gen_lag_ms_p99", percentile(load.lag_s, 0.99) * 1e3,
                "ms");
        r.layer("core.plan_build_s", plan_s, "s");
        r.layer("trace.overhead_frac",
                median(traced_lat) / median(lat_s) - 1.0, "fraction");
    }

    // Server-side ledger: completed + shed must equal offered.
    const serve::StatsSnapshot fin = server->snapshot();
    const uint64_t offered = r.attempted;
    if (fin.completed + fin.shed != offered || stray.load() != 0)
        r.failed += 1;
    return r;
}

} // namespace vitcod::suite
