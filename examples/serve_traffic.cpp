/**
 * @file
 * Serving quickstart: a heterogeneous 4-worker pool (2x the ViTCoD
 * accelerator + 2x the CPU platform model) behind the default
 * continuous-batching scheduler, under open-loop Poisson traffic
 * mixing two tasks (DeiT-Small @ 90% sparsity, LeViT-128 @ 80%).
 * The load generator sweeps arrival rates with a fresh server per
 * rate (so each row's percentiles cover only that rate's samples)
 * and reports wall-clock p50/p95/p99 latency, throughput, batch
 * sizes, plan-cache hit rate and per-backend utilization.
 *
 * With `--trace=FILE` the last swept rate runs with the telemetry
 * layer recording: one worker is the real-execution ModelExec
 * backend, so the exported Chrome trace_event JSON (load it in
 * Perfetto or chrome://tracing) shows request flow arrows from
 * submit through batch dispatch into actual KernelEngine kernel
 * spans. See docs/OBSERVABILITY.md.
 *
 * Build & run:  ./build/examples/serve_traffic [requests-per-rate]
 *                                              [--trace=FILE]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/load_gen.h"
#include "serve/server.h"

int
main(int argc, char **argv)
{
    using namespace vitcod;

    size_t requests = 1000;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0)
            traceOut = argv[i] + 8;
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            traceOut = argv[++i];
        else
            requests = static_cast<size_t>(
                std::strtoull(argv[i], nullptr, 10));
    }

    const serve::PlanKey deit{"DeiT-Small", 0.9, true, false};
    const serve::PlanKey levit{"LeViT-128", 0.8, true, false};

    serve::ServerConfig cfg;
    cfg.backends = {"ViTCoD", "ViTCoD", "CPU", "CPU"};

    std::printf("serve_traffic: %zu workers (2x ViTCoD + 2x CPU), "
                "policy=continuous maxBatch=%zu\n",
                cfg.backends.size(), cfg.scheduler.maxBatch);
    std::printf("traffic mix: 70%% %s + 30%% %s, open-loop Poisson, "
                "fresh server per rate\n\n",
                deit.str().c_str(), levit.str().c_str());
    std::printf("%9s %9s %9s %9s %9s %9s %9s\n", "rate/s", "achieved",
                "p50 ms", "p95 ms", "p99 ms", "batch", "queue");

    uint64_t totalServed = 0;
    double totalEnergy = 0;
    serve::StatsSnapshot last;
    serve::PlanCache::Stats lastCache;

    for (double rate : {500.0, 1000.0, 2000.0, 4000.0}) {
        serve::InferenceServer server(cfg);
        server.warmup({deit, levit});

        serve::TrafficConfig traffic;
        traffic.ratePerSec = rate;
        traffic.requests = requests;
        traffic.mix = {deit, levit};
        traffic.mixWeights = {0.7, 0.3};
        traffic.seed = 42;

        const serve::TrafficReport rep =
            serve::runTraffic(server, traffic);
        const serve::StatsSnapshot s = server.snapshot();

        std::printf("%9.0f %9.0f %9.3f %9.3f %9.3f %9.2f %9.2f\n",
                    rep.offeredRatePerSec, rep.completionRps,
                    s.wallP50 * 1e3, s.wallP95 * 1e3, s.wallP99 * 1e3,
                    s.meanBatchSize, s.meanQueueDepth);

        totalServed += s.completed;
        totalEnergy += s.totalEnergyJoules;
        last = s;
        lastCache = server.planCacheStats();
    }

    if (!traceOut.empty()) {
        // Traced pass: a ModelExec worker executes real KernelEngine
        // forwards, so the trace carries a request flow all the way
        // from submit into kernel spans. Real execution is orders of
        // magnitude slower than the simulator backends, so this pass
        // serves a small fixed load.
        serve::ServerConfig tcfg = cfg;
        tcfg.backends = {"ModelExec", "ViTCoD"};
        tcfg.traceOutPath = traceOut;

        serve::TrafficConfig traffic;
        traffic.ratePerSec = 200.0;
        traffic.requests = std::min<size_t>(requests, 24);
        traffic.mix = {deit, levit};
        traffic.mixWeights = {0.7, 0.3};
        traffic.seed = 42;

        std::printf("\ntraced pass: %zu requests on ModelExec+ViTCoD "
                    "-> %s\n",
                    traffic.requests, traceOut.c_str());
        serve::InferenceServer server(tcfg);
        server.warmup({deit, levit});
        serve::runTraffic(server, traffic);
        server.drain();
        server.shutdown(); // stops the tracer and writes traceOut
    }

    std::printf("\ntotals: %llu requests served, %.1f J simulated "
                "energy\n",
                static_cast<unsigned long long>(totalServed),
                totalEnergy);
    std::printf("plan cache (last rate): %llu hits / %llu misses "
                "(hit rate %.2f%%), %.2fs compiling\n",
                static_cast<unsigned long long>(lastCache.hits),
                static_cast<unsigned long long>(lastCache.misses),
                100.0 * lastCache.hitRate(),
                lastCache.compileWallSeconds);

    std::printf("\nbackends at the last rate:\n");
    std::printf("%-10s %9s %9s %9s %12s %14s\n", "backend", "reqs",
                "batches", "switches", "sim busy s", "busy ticks");
    for (const auto &b : last.backends) {
        std::printf("%-10s %9llu %9llu %9llu %12.4f %14llu\n",
                    b.name.c_str(),
                    static_cast<unsigned long long>(b.requests),
                    static_cast<unsigned long long>(b.batches),
                    static_cast<unsigned long long>(b.planSwitches),
                    b.busySimSeconds + b.switchSimSeconds,
                    static_cast<unsigned long long>(b.busyTicks));
    }

    // Schedule-IR honesty check: each plan's compiled schedule was
    // priced once by the ViTCoD simulator; compare that prediction
    // with what the backends actually reported per request.
    std::printf("\npredicted vs measured per plan (last rate):\n");
    std::printf("%-28s %7s %12s %12s %7s\n", "plan", "reqs",
                "predicted s", "measured s", "ratio");
    for (const auto &p : last.plans) {
        std::printf("%-28s %7llu %12.6f %12.6f %7.3f\n",
                    p.key.c_str(),
                    static_cast<unsigned long long>(p.requests),
                    p.predictedSeconds, p.measuredMeanSeconds,
                    p.ratio());
    }
    return 0;
}
