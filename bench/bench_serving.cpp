/**
 * @file
 * Serving throughput–latency curves plus the production soak
 * harness.
 *
 * Default mode sweeps scheduler policy (fifo / bucketed / priority /
 * continuous) x backend mix (homogeneous ViTCoD pool vs
 * heterogeneous ViTCoD+CPU) x offered Poisson arrival rate, serving
 * a fixed two-task mix (DeiT-Tiny @ 90%, LeViT-128 @ 80%) through a
 * 4-worker pool each time. Reports wall-clock latency percentiles,
 * offered vs completion throughput, batch sizes, plan-switch counts
 * and plan-cache behavior — one human table plus one JSON row per
 * configuration (machine-readable, for BENCH_*.json trajectories).
 *
 * --soak switches to the overload soak harness: a bursty
 * (Markov-modulated) trace at 2x the pool's wall-clock capacity —
 * workers are paced to real time via ServerConfig::realtimeFactor —
 * driven through (a) the SLO-aware continuous-batching server with
 * admission control and (b) a fifo server with admission off, on
 * the same trace. Reports sustained QPS, admitted-request
 * p50/p95/p99, shed rate and queue depth; the full run offers
 * >= 10^6 requests, --smoke a CI-sized slice whose "slo" row is
 * gated in perf-smoke CI (bench/baselines/serving_soak_baseline
 * .json). See docs/SERVING.md.
 *
 * Flags: --soak, --seed N, --json, --smoke.
 */

#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "serve/load_gen.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

namespace {

struct Mix
{
    const char *label;
    std::vector<std::string> backends;
};

using namespace vitcod;

/** One soak run: bursty 2x-overload trace through one server shape. */
void
runSoak(const bench::CliOptions &opts)
{
    const serve::PlanKey deit{"DeiT-Tiny", 0.9, true, false};

    // Pool capacity is set by pacing workers to real time: one
    // request occupies a worker for kTargetServiceSeconds of wall
    // time, so capacity = workers / target, independent of how fast
    // the simulator happens to run on this machine.
    constexpr double kTargetServiceSeconds = 100e-6;
    constexpr size_t kWorkers = 4;
    constexpr double kOverload = 2.0;

    const double service =
        serve::PlanCache().get(deit)->simEstimate.seconds;
    const double factor = kTargetServiceSeconds / service;
    const double capacityRps =
        static_cast<double>(kWorkers) / kTargetServiceSeconds;

    // SLO: 20 service times of queue-exit latency (in the
    // simEstimate clock domain the admission controller works in);
    // the grace band doubles it before shedding.
    const double sloSimSeconds = 20.0 * service;

    const size_t kRequests = opts.smoke ? 30'000 : 1'200'000;
    // The fifo contrast run has no shedding, so at 2x overload its
    // drain tail costs as much wall time again as the submit window;
    // cap it so the full soak stays dominated by the gated run.
    const size_t kFifoRequests =
        std::min<size_t>(kRequests, 100'000);

    if (!opts.json) {
        bench::printHeader(
            "serving soak: bursty 2x overload, SLO admission",
            "ROADMAP item 3 (production-scale serving)");
        std::printf("capacity %.0f rps (%zu workers x %.0f us "
                    "service), offering %.0f rps\n\n",
                    capacityRps, kWorkers,
                    kTargetServiceSeconds * 1e6,
                    capacityRps * kOverload);
        std::printf("%-6s %9s %10s %9s %8s %8s %8s %7s %10s\n",
                    "mode", "requests", "sustained", "offered",
                    "p50 ms", "p95 ms", "p99 ms", "shed%",
                    "max depth");
    }

    struct Shape
    {
        const char *label;
        bool slo;
        size_t requests;
    };
    const std::vector<Shape> shapes = {
        {"slo", true, kRequests},
        {"fifo", false, kFifoRequests},
    };

    for (const Shape &shape : shapes) {
        serve::ServerConfig cfg;
        cfg.backends.assign(kWorkers, "ViTCoD");
        cfg.realtimeFactor = factor;
        if (shape.slo) {
            cfg.scheduler.policy =
                serve::SchedulerPolicy::Continuous;
            cfg.scheduler.maxBatch = 8;
            cfg.scheduler.maxWaitSeconds = 5e-3;
            cfg.admission.enabled = true;
            cfg.admission.defaultSloSeconds = sloSimSeconds;
            cfg.admission.shedMultiplier = 2.0;
        } else {
            cfg.scheduler.policy = serve::SchedulerPolicy::Fifo;
            cfg.scheduler.maxBatch = 8;
        }

        serve::InferenceServer server(cfg);

        serve::TrafficConfig traffic;
        traffic.process = serve::ArrivalProcess::MarkovOnOff;
        traffic.ratePerSec = capacityRps * kOverload;
        traffic.burstRateMultiplier = 8.0;
        traffic.meanBurstSeconds = 0.05;
        traffic.meanIdleSeconds = 0.20;
        traffic.requests = shape.requests;
        traffic.mix = {deit};
        traffic.seed = opts.seed;

        const serve::TrafficReport rep =
            serve::runTraffic(server, traffic);
        const serve::StatsSnapshot s = server.snapshot();

        if (!opts.json)
            std::printf("%-6s %9zu %10.0f %9.0f %8.3f %8.3f "
                        "%8.3f %6.1f%% %10.0f\n",
                        shape.label, shape.requests,
                        rep.completionRps, rep.offeredRps,
                        s.wallP50 * 1e3, s.wallP95 * 1e3,
                        s.wallP99 * 1e3, rep.shedRate * 100,
                        s.maxQueueDepth);

        bench::JsonRow()
            .set("bench", "serving_soak")
            .set("kernel", shape.label)
            .set("requests", static_cast<uint64_t>(shape.requests))
            .set("offered_rps", rep.offeredRps)
            .set("sustained_qps", rep.completionRps)
            .set("wall_p50_ms", s.wallP50 * 1e3)
            .set("wall_p95_ms", s.wallP95 * 1e3)
            .set("wall_p99_ms", s.wallP99 * 1e3)
            .set("shed_rate", rep.shedRate)
            .set("shed", static_cast<uint64_t>(rep.shed))
            .set("admitted", s.admitted)
            .set("deprioritized", s.deprioritized)
            .set("mean_queue_depth", s.meanQueueDepth)
            .set("max_queue_depth", s.maxQueueDepth)
            .set("mean_batch", s.meanBatchSize)
            .set("slo_sim_s", shape.slo ? sloSimSeconds : 0.0)
            .set("realtime_factor", factor)
            .set("seed", opts.seed)
            .print();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::CliOptions opts = bench::parseCli(argc, argv);
    bool soak = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--soak") == 0)
            soak = true;

    if (soak) {
        runSoak(opts);
        return 0;
    }

    if (!opts.json)
        bench::printHeader("serving throughput-latency curves",
                           "Sec. V-B3 (one-time compilation, "
                           "amortized across requests)");

    const serve::PlanKey deit{"DeiT-Tiny", 0.9, true, false};
    const serve::PlanKey levit{"LeViT-128", 0.8, true, false};

    std::vector<Mix> mixes = {
        {"4xViTCoD", {"ViTCoD", "ViTCoD", "ViTCoD", "ViTCoD"}},
        {"2xViTCoD+2xCPU", {"ViTCoD", "ViTCoD", "CPU", "CPU"}},
    };
    std::vector<serve::SchedulerPolicy> policies = {
        serve::SchedulerPolicy::Fifo,
        serve::SchedulerPolicy::SizeBucketed,
        serve::SchedulerPolicy::Priority,
        serve::SchedulerPolicy::Continuous,
    };
    std::vector<double> rates = {1000, 2000, 4000};
    size_t kRequests = 500;
    if (opts.smoke) { // one curve point, small trace
        mixes.resize(1);
        policies = {serve::SchedulerPolicy::Continuous};
        rates = {2000};
        kRequests = 100;
    }

    if (!opts.json)
        std::printf("%-16s %-11s %7s %9s %8s %8s %8s %7s %9s\n",
                    "backends", "policy", "rate/s", "complete",
                    "p50 ms", "p95 ms", "p99 ms", "batch",
                    "switches");

    for (const Mix &mix : mixes) {
        for (const auto policy : policies) {
            for (const double rate : rates) {
                serve::ServerConfig cfg;
                cfg.backends = mix.backends;
                cfg.scheduler.policy = policy;
                cfg.scheduler.maxBatch = 8;
                cfg.scheduler.maxWaitSeconds = 2e-3;

                serve::InferenceServer server(cfg);

                serve::TrafficConfig traffic;
                traffic.ratePerSec = rate;
                traffic.requests = kRequests;
                traffic.mix = {deit, levit};
                traffic.mixWeights = {0.7, 0.3};
                traffic.priorityLevels =
                    policy == serve::SchedulerPolicy::Priority ? 3
                                                               : 1;
                traffic.seed = opts.seed;

                const serve::TrafficReport rep =
                    serve::runTraffic(server, traffic);
                const serve::StatsSnapshot s = server.snapshot();
                const serve::PlanCache::Stats pc =
                    server.planCacheStats();

                uint64_t switches = 0;
                double simBusy = 0;
                for (const auto &b : s.backends) {
                    switches += b.planSwitches;
                    simBusy +=
                        b.busySimSeconds + b.switchSimSeconds;
                }

                if (!opts.json)
                    std::printf("%-16s %-11s %7.0f %9.0f %8.3f "
                                "%8.3f %8.3f %7.2f %9llu\n",
                                mix.label,
                                serve::schedulerPolicyName(policy),
                                rate, rep.completionRps,
                                s.wallP50 * 1e3, s.wallP95 * 1e3,
                                s.wallP99 * 1e3, s.meanBatchSize,
                                static_cast<unsigned long long>(
                                    switches));

                bench::JsonRow()
                    .set("bench", "serving")
                    .set("backends", mix.label)
                    .set("policy",
                         serve::schedulerPolicyName(policy))
                    .set("rate_rps", rate)
                    .set("requests",
                         static_cast<uint64_t>(kRequests))
                    .set("offered_rps", rep.offeredRps)
                    .set("completion_rps", rep.completionRps)
                    .set("wall_p50_ms", s.wallP50 * 1e3)
                    .set("wall_p95_ms", s.wallP95 * 1e3)
                    .set("wall_p99_ms", s.wallP99 * 1e3)
                    .set("queue_p95_ms", s.queueP95 * 1e3)
                    .set("sim_p50_us", s.simP50 * 1e6)
                    .set("mean_batch", s.meanBatchSize)
                    .set("mean_queue_depth", s.meanQueueDepth)
                    .set("plan_switches", switches)
                    .set("sim_busy_s", simBusy)
                    .set("energy_j", s.totalEnergyJoules)
                    .set("cache_hit_rate", pc.hitRate())
                    .set("seed", opts.seed)
                    .print();
            }
        }
    }
    return 0;
}
