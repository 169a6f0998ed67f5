#include "serve/worker_pool.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "obs/trace.h"

namespace vitcod::serve {

WorkerPool::WorkerPool(
    std::vector<std::unique_ptr<ServeBackend>> backends,
    BatchScheduler &scheduler, PlanCache &cache, ServerStats &stats,
    std::function<void(const InferenceResponse &)> on_complete,
    std::function<double()> clock, double realtime_factor)
    : backends_(std::move(backends)), scheduler_(scheduler),
      cache_(cache), stats_(stats),
      onComplete_(std::move(on_complete)), clock_(std::move(clock)),
      realtimeFactor_(realtime_factor)
{
    VITCOD_ASSERT(!backends_.empty(), "worker pool needs >= 1 backend");
    for (size_t i = 0; i < backends_.size(); ++i)
        stats_.registerBackend(i, backends_[i]->name());
}

WorkerPool::~WorkerPool()
{
    join();
}

void
WorkerPool::start()
{
    if (pool_)
        return;
    pool_ = std::make_unique<linalg::engine::ThreadPool>(
        backends_.size());
    for (size_t i = 0; i < backends_.size(); ++i)
        pool_->submit([this, i] { workerMain(i); });
}

void
WorkerPool::join()
{
    if (!pool_)
        return;
    pool_->waitIdle();
    pool_.reset();
}

void
WorkerPool::workerMain(size_t idx)
{
    ServeBackend &backend = *backends_[idx];
    obs::TraceSession::instance().setThreadName(
        "serve-" + std::to_string(idx) + "-" + backend.name());

    // Virtual device clock: ticks advance by each batch's simulated
    // duration, giving busy time in the backend's clock domain.
    sim::Tick deviceTicks = 0;

    // Continuous-batching affinity: the plan this worker executed
    // last. The scheduler prefers topping up this plan's next batch
    // (requests that arrived while the previous batch ran) so the
    // worker refills in flight without a weight reload.
    PlanKey residentPlan;
    bool hasResident = false;

    while (auto batch = scheduler_.waitBatch(
               hasResident ? &residentPlan : nullptr)) {
        const size_t n = batch->requests.size();

        obs::SpanGuard batchSpan("batch", "serve", "size", double(n),
                                 "worker", double(idx));
        // Flow waypoints land on this worker's track, tying each
        // request's submit arrow to the batch that executes it.
        for (const InferenceRequest &req : batch->requests)
            obs::flowStep("request", req.id, "serve");

        const auto cp = cache_.get(batch->key);

        const double t0 = clock_();
        ServeBackend::BatchResult r;
        {
            VITCOD_TRACE_SPAN("execute", "serve", "size", double(n));
            r = backend.runBatch(*cp, n);
        }
        // Real-time pacing: occupy the worker for the batch's
        // simulated duration (scaled), so wall-clock capacity is
        // finite and overload behaves like a physical device.
        if (realtimeFactor_ > 0) {
            const double target = r.stats.seconds * realtimeFactor_;
            const double elapsed = clock_() - t0;
            if (target > elapsed)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(target - elapsed));
        }
        const double t1 = clock_();
        residentPlan = batch->key;
        hasResident = true;

        deviceTicks += secondsToCycles(r.stats.seconds, backend.freqGhz());
        batchSpan.tick(deviceTicks);

        stats_.recordBatch(idx, n, r.perRequestSeconds * n,
                           r.switchSeconds, r.switched, t1 - t0,
                           deviceTicks, r.stats.energyJoules());
        // Predicted-vs-measured per plan: the schedule-derived
        // simulation estimate against what this backend reported.
        stats_.recordPlanBatch(batch->key.str(),
                               cp->simEstimate.seconds,
                               r.perRequestSeconds, n);

        for (const InferenceRequest &req : batch->requests) {
            InferenceResponse resp;
            resp.id = req.id;
            resp.backend = backend.name();
            resp.batchSize = n;
            resp.queueSeconds =
                batch->formedSeconds - req.submitSeconds;
            resp.wallLatencySeconds = t1 - req.submitSeconds;
            resp.simSeconds = r.perRequestSeconds;
            resp.simBatchSeconds = r.stats.seconds;
            resp.energyJoules =
                r.stats.energyJoules() / static_cast<double>(n);
            resp.predictedServiceSeconds =
                req.predictedServiceSeconds;
            resp.deprioritized = req.deprioritized;
            stats_.recordResponse(resp);
            obs::flowEnd("request", req.id, "serve");
            if (onComplete_)
                onComplete_(resp);
        }
    }
}

} // namespace vitcod::serve
