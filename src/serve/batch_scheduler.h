/**
 * @file
 * Batch formation. Incoming requests are grouped into same-plan
 * batches — only same-plan requests can share a CompiledPlan and
 * avoid a weight reload — by one rule, continuous (in-flight)
 * batching: a freed worker immediately pulls whatever is queued,
 * preferring its *current* plan so the scheduler tops up an
 * executing plan's next batch with requests that arrived while the
 * previous one ran (no weight reload), and falling back to the
 * oldest queued request's plan. A starvation guard bounds the
 * affinity bias: once the head of the queue has waited longer than
 * maxWaitSeconds, arrival order wins over plan affinity.
 *
 * A ViT's token count is fixed, so every request of a plan costs
 * the same (the plan's simEstimate, priced once at compile time);
 * there is nothing to gain from holding a lone request back to wait
 * for company, and no per-request cost to order by.
 *
 * Time is injected through a clock callable so unit tests drive
 * batch formation deterministically; the server passes its epoch
 * wall clock. Workers block in waitBatch() on a condition variable
 * and are woken by submissions or stop().
 */

#ifndef VITCOD_SERVE_BATCH_SCHEDULER_H
#define VITCOD_SERVE_BATCH_SCHEDULER_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace vitcod::serve {

/**
 * Batch formation policy. Continuous batching is the only one; the
 * enum and SchedulerConfig::policy remain only because
 * bench/suite/serve.cpp names them.
 */
enum class SchedulerPolicy { Continuous };

struct SchedulerConfig
{
    SchedulerPolicy policy = SchedulerPolicy::Continuous;
    size_t maxBatch = 8; //!< batch size cap

    /**
     * Starvation guard: once the oldest queued request has waited
     * this long, it leads the next batch regardless of the calling
     * worker's resident plan.
     */
    double maxWaitSeconds = 2e-3;

    /**
     * Time source for arrival stamps and the starvation guard;
     * seconds on an arbitrary monotonic epoch. Defaults to wall
     * time since scheduler construction.
     */
    std::function<double()> clock;
};

/** A group of same-plan requests dispatched together. */
struct Batch
{
    PlanKey key;
    std::vector<InferenceRequest> requests;
    double formedSeconds = 0; //!< clock() at dispatch
};

/** Thread-safe batching queue drained by the worker pool. */
class BatchScheduler
{
  public:
    explicit BatchScheduler(SchedulerConfig cfg = {});

    /** Admit one request (stamps submitSeconds); wakes one worker. */
    void submit(InferenceRequest req);

    /**
     * Form the next batch, or nullopt when the queue is empty.
     * Non-blocking; deterministic given the injected clock.
     * @p affinity is the calling worker's resident plan (nullptr =
     * none).
     */
    std::optional<Batch> nextBatch(const PlanKey *affinity = nullptr);

    /**
     * Block until a batch can be formed. Returns nullopt only when
     * stopped *and* empty — pending requests are drained as batches
     * first. @p affinity as in nextBatch().
     */
    std::optional<Batch> waitBatch(const PlanKey *affinity = nullptr);

    /** Stop admission of waiters; pending work is still drained. */
    void stop();

    bool stopped() const;

    /** Queued (not yet dispatched) request count. */
    size_t depth() const;

    const SchedulerConfig &config() const { return cfg_; }

  private:
    std::optional<Batch> formContinuous(double now,
                                        const PlanKey *affinity);

    /**
     * Move up to @p limit requests of @p key out of the queue (in
     * arrival order), zero request copies. Only the queue prefix
     * scanned to find them is compacted, so a batch costs moves
     * in that prefix, not in the whole (possibly deep) queue.
     */
    std::vector<InferenceRequest> takeMatching(const PlanKey &key,
                                               size_t limit);

    SchedulerConfig cfg_;

    mutable std::mutex lock_;
    std::condition_variable cv_;
    std::deque<InferenceRequest> queue_; //!< arrival order
    bool stopped_ = false;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_BATCH_SCHEDULER_H
