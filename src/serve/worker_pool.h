/**
 * @file
 * The concurrent heart of the serving runtime: N worker threads,
 * each owning one ServeBackend (heterogeneous mixes allowed — e.g.
 * ViTCoD accelerators alongside a CPU platform model), drain the
 * BatchScheduler until it is stopped *and* empty. Workers refill
 * continuously: as soon as one finishes a batch it asks the
 * scheduler for the next, passing the plan it just executed as its
 * affinity hint so continuous batching can top up the resident
 * plan's next batch without a weight reload. Each worker keeps
 * a private sim::Tick counter as its virtual device clock: every
 * executed batch adds its simulated duration, so the counter
 * accumulates per-backend simulated busy time in the device's own
 * clock domain, separate from the wall-clock timing the worker also
 * records.
 *
 * Worker loops run as long-lived tasks on a linalg::engine::
 * ThreadPool (one pool thread per backend) rather than ad-hoc
 * std::threads — the same pool component the KernelEngine uses for
 * its parallel-for, so thread lifecycle logic lives in one place.
 */

#ifndef VITCOD_SERVE_WORKER_POOL_H
#define VITCOD_SERVE_WORKER_POOL_H

#include <functional>
#include <memory>
#include <vector>

#include "linalg/engine/thread_pool.h"
#include "serve/backend.h"
#include "serve/batch_scheduler.h"
#include "serve/plan_cache.h"
#include "serve/server_stats.h"

namespace vitcod::serve {

/** Fixed pool of backend-owning worker threads. */
class WorkerPool
{
  public:
    /**
     * @param backends One per worker; the pool takes ownership.
     * @param on_complete Called from worker threads once per request
     *        (after stats are recorded); may be empty.
     * @param clock Shared server epoch clock (seconds).
     * @param realtime_factor When > 0, each worker sleeps until a
     *        batch has occupied it for simSeconds * factor of wall
     *        time, pacing the simulated device in (scaled) real
     *        time — this is what makes overload physical for the
     *        soak harness instead of every simulated batch
     *        completing instantly. 0 (default) = run flat out.
     */
    WorkerPool(std::vector<std::unique_ptr<ServeBackend>> backends,
               BatchScheduler &scheduler, PlanCache &cache,
               ServerStats &stats,
               std::function<void(const InferenceResponse &)>
                   on_complete,
               std::function<double()> clock,
               double realtime_factor = 0.0);

    /** Joins all workers; requires the scheduler to be stopped. */
    ~WorkerPool();

    /** Launch the worker threads. Idempotent. */
    void start();

    /**
     * Wait for every worker to exit. Returns once the scheduler has
     * been stopped and fully drained. Idempotent.
     */
    void join();

    size_t size() const { return backends_.size(); }

  private:
    void workerMain(size_t idx);

    std::vector<std::unique_ptr<ServeBackend>> backends_;
    BatchScheduler &scheduler_;
    PlanCache &cache_;
    ServerStats &stats_;
    std::function<void(const InferenceResponse &)> onComplete_;
    std::function<double()> clock_;
    double realtimeFactor_ = 0.0;

    /** One pool thread per backend; null until start(). */
    std::unique_ptr<linalg::engine::ThreadPool> pool_;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_WORKER_POOL_H
