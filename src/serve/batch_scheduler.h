/**
 * @file
 * Request admission and batch formation. Incoming requests are
 * grouped into same-plan batches — only same-plan requests can share
 * a CompiledPlan and avoid a weight reload — under one of three
 * policies:
 *
 *  - Fifo: strict arrival order; a batch is the longest same-plan
 *    *prefix* of the queue (no reordering, lowest tail fairness
 *    risk, but mixed traffic yields small batches);
 *  - SizeBucketed: per-plan buckets dispatch when full (maxBatch) or
 *    when their oldest request has waited maxWaitSeconds (bounded
 *    staleness — the classic batching throughput/latency knob);
 *  - Priority: highest priority first (ties by arrival), batched
 *    with same-plan same-or-lower-priority requests;
 *  - Continuous: in-flight batching — a freed worker immediately
 *    pulls whatever is queued (never waits on a bucket boundary),
 *    preferring its *current* plan so the scheduler tops up an
 *    executing plan's next batch with requests that arrived while
 *    the previous one ran (no weight reload), and falling back to
 *    the oldest queued request's plan. A starvation guard bounds
 *    the affinity bias: once the head of the queue has waited
 *    longer than maxWaitSeconds, arrival order wins over plan
 *    affinity.
 *
 * Time is injected through a clock callable so unit tests drive
 * batch formation deterministically; the server passes its epoch
 * wall clock. Workers block in waitBatch() on a condition variable
 * and are woken by submissions, deadline expiry, or stop().
 */

#ifndef VITCOD_SERVE_BATCH_SCHEDULER_H
#define VITCOD_SERVE_BATCH_SCHEDULER_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.h"

namespace vitcod::serve {

/** Batch formation policy. */
enum class SchedulerPolicy { Fifo, SizeBucketed, Priority, Continuous };

/**
 * Parse "fifo" / "bucketed" / "priority" / "continuous"; fatal()
 * otherwise.
 */
SchedulerPolicy schedulerPolicyByName(const std::string &name);

/** Printable policy name. */
const char *schedulerPolicyName(SchedulerPolicy p);

struct SchedulerConfig
{
    SchedulerPolicy policy = SchedulerPolicy::SizeBucketed;
    size_t maxBatch = 8;          //!< dispatch threshold and cap
    double maxWaitSeconds = 2e-3; //!< bucket flush deadline

    /**
     * Time source for arrival stamps and deadlines; seconds on an
     * arbitrary monotonic epoch. Defaults to wall time since
     * scheduler construction.
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
     * Form the next batch per policy, or nullopt when nothing is
     * dispatchable right now. Non-blocking; deterministic given the
     * injected clock. @p affinity is the calling worker's resident
     * plan (nullptr = none); only the Continuous policy uses it.
     */
    std::optional<Batch> nextBatch(const PlanKey *affinity = nullptr);

    /**
     * Block until a batch can be formed, a bucket deadline expires,
     * or stop() drains the queue. Returns nullopt only when stopped
     * *and* empty — pending requests are flushed out as batches
     * first, ignoring deadlines. @p affinity as in nextBatch().
     */
    std::optional<Batch> waitBatch(const PlanKey *affinity = nullptr);

    /** Stop admission of waiters; pending work is still drained. */
    void stop();

    bool stopped() const;

    /** Queued (not yet dispatched) request count. */
    size_t depth() const;

    const SchedulerConfig &config() const { return cfg_; }

  private:
    /** Policy dispatch; @p flush ignores bucket deadlines. */
    std::optional<Batch> formBatch(double now, bool flush,
                                   const PlanKey *affinity);

    std::optional<Batch> formFifo(double now);
    std::optional<Batch> formBucketed(double now, bool flush);
    std::optional<Batch> formPriority(double now);
    std::optional<Batch> formContinuous(double now,
                                        const PlanKey *affinity);

    /**
     * Move up to @p limit requests of @p key out of the queue (in
     * arrival order) and compact the remainder in the same single
     * pass — O(n) moves, zero request copies.
     */
    std::vector<InferenceRequest> takeMatching(const PlanKey &key,
                                               size_t limit);

    /**
     * Earliest bucket deadline, or +inf. Only meaningful for
     * SizeBucketed; others dispatch eagerly.
     */
    double nextDeadline() const;

    SchedulerConfig cfg_;

    mutable std::mutex lock_;
    std::condition_variable cv_;
    std::deque<InferenceRequest> queue_; //!< arrival order
    bool stopped_ = false;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_BATCH_SCHEDULER_H
