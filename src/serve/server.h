/**
 * @file
 * The serving facade: wires PlanCache + BatchScheduler + WorkerPool
 * + ServerStats into one object with a submit/drain/shutdown
 * lifecycle. Admission resolves the request's plan through the
 * cache, so the first request of a task pays the one-time build +
 * compile (or call warmup() beforehand) and everything after it is
 * a cache hit; workers then share the immutable CompiledPlan.
 * Admitted requests (see AdmissionController) join one
 * continuous-batching queue (BatchScheduler) that every worker
 * drains; a request carries nothing but its PlanKey.
 *
 * Typical use (see examples/serve_traffic.cpp):
 *
 *   serve::ServerConfig cfg;
 *   cfg.backends = {"ViTCoD", "ViTCoD", "CPU", "CPU"};
 *   serve::InferenceServer server(cfg);
 *   server.warmup({keyA, keyB});
 *   ... server.submit(keyA) from any threads ...
 *   server.drain();
 *   auto snap = server.snapshot();
 */

#ifndef VITCOD_SERVE_SERVER_H
#define VITCOD_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/admission.h"
#include "serve/backend.h"
#include "serve/batch_scheduler.h"
#include "serve/plan_cache.h"
#include "serve/server_stats.h"
#include "serve/worker_pool.h"

namespace vitcod::serve {

/** Whole-server configuration. */
struct ServerConfig
{
    /**
     * One worker per entry; each spec names a backend (see
     * makeServeBackend). Heterogeneous mixes are allowed.
     */
    std::vector<std::string> backends = {"ViTCoD"};

    /** Continuous-batching knobs (clock is overridden). */
    SchedulerConfig scheduler;

    /**
     * SLO-aware admission control (disabled by default): predicts
     * each request's queue-exit latency from the plan's simEstimate
     * and the current backlog, and admits / deprioritizes (admits
     * and counts) / sheds against the per-plan SLO. Shed requests
     * are counted in ServerStats; submit() returns 0 for them. See
     * docs/SERVING.md.
     */
    AdmissionConfig admission;

    /**
     * When > 0, workers pace each batch to simSeconds * factor of
     * wall time, giving the pool a finite wall-clock capacity (the
     * soak harness uses this to create real overload). 0 = run the
     * simulators flat out.
     */
    double realtimeFactor = 0.0;

    /** Plan cache capacity; 0 = unbounded. */
    size_t planCacheCapacity = 0;

    /**
     * Hardware config plans are compiled and priced for (plan cache
     * and ViTCoD workers). A design-space search result serves as
     * `hw = r.frontier.bestLatency().hw.apply(hw)` (docs/DSE.md).
     */
    accel::ViTCoDConfig hw;

    /**
     * When non-empty, the server starts the process-wide
     * obs::TraceSession at construction and writes the recorded
     * Chrome trace_event JSON here at shutdown() — request
     * lifecycle spans, flow arrows across worker tracks, kernel
     * spans (see docs/OBSERVABILITY.md).
     */
    std::string traceOutPath;
};

/** A running inference service over simulated accelerators. */
class InferenceServer
{
  public:
    /**
     * Construct and start the worker pool.
     * @param on_response Optional per-completion callback, invoked
     *        from worker threads.
     */
    explicit InferenceServer(
        ServerConfig cfg,
        std::function<void(const InferenceResponse &)> on_response =
            {});

    /** Drains and joins; equivalent to shutdown(). */
    ~InferenceServer();

    /**
     * Pre-build the plans of @p keys so traffic never compiles. A
     * malformed key (!PlanKey::valid()) builds nothing and is
     * counted as rejected, as in submit().
     */
    void warmup(const std::vector<PlanKey> &keys);

    /**
     * Offer one request. Thread-safe. Returns the request id, or 0
     * when nothing was queued (ids start at 1): admission control
     * shed the request, or @p key is malformed (!PlanKey::valid(),
     * counted as rejected; nothing is built). Blocks only when
     * @p key was never seen (plan build+compile).
     */
    uint64_t submit(const PlanKey &key);

    /** Block until every submitted request has completed. */
    void drain();

    /**
     * Stop admission, drain pending work, join workers. Idempotent;
     * submit() after shutdown is invalid.
     */
    void shutdown();

    /** Seconds since server start (the epoch all stamps share). */
    double nowSeconds() const;

    /** Aggregate metrics at this instant. */
    StatsSnapshot snapshot() const;

    PlanCache::Stats planCacheStats() const { return cache_.stats(); }

    const AdmissionController &admission() const { return admission_; }

    size_t queueDepth() const { return scheduler_.depth(); }

    size_t workers() const { return pool_->size(); }

    const ServerConfig &config() const { return cfg_; }

  private:
    void onComplete(const InferenceResponse &resp);

    ServerConfig cfg_;
    std::chrono::steady_clock::time_point epoch_;

    PlanCache cache_;
    BatchScheduler scheduler_;
    AdmissionController admission_;
    ServerStats stats_;
    std::function<void(const InferenceResponse &)> userCallback_;
    std::unique_ptr<WorkerPool> pool_;

    std::atomic<uint64_t> nextId_{1};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::mutex doneLock_;
    std::condition_variable doneCv_;
    bool traceExported_ = false; //!< shutdown() is idempotent
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_SERVER_H
