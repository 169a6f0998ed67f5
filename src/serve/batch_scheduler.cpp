#include "serve/batch_scheduler.h"

#include <chrono>
#include <cstddef>

#include "common/logging.h"

namespace vitcod::serve {

BatchScheduler::BatchScheduler(SchedulerConfig cfg) : cfg_(std::move(cfg))
{
    VITCOD_ASSERT(cfg_.maxBatch >= 1, "maxBatch must be positive");
    if (!cfg_.clock) {
        const auto t0 = std::chrono::steady_clock::now();
        cfg_.clock = [t0] {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                .count();
        };
    }
}

void
BatchScheduler::submit(InferenceRequest req)
{
    {
        std::lock_guard<std::mutex> g(lock_);
        req.submitSeconds = cfg_.clock();
        queue_.push_back(std::move(req));
    }
    cv_.notify_one();
}

std::vector<InferenceRequest>
BatchScheduler::takeMatching(const PlanKey &key, size_t limit)
{
    std::vector<size_t> at; // queue positions taken, ascending
    for (size_t r = 0; r < queue_.size() && at.size() < limit; ++r)
        if (queue_[r].key == key)
            at.push_back(r);

    std::vector<InferenceRequest> taken;
    taken.reserve(at.size());
    for (size_t r : at)
        taken.push_back(std::move(queue_[r]));

    // Only [0, at.back()] has holes: slide its kept requests to the
    // back of that prefix (order preserved), then drop the freed
    // front slots, which a deque does in O(holes).
    size_t w = at.empty() ? 0 : at.back() + 1;
    for (size_t r = w, k = at.size(); r-- > 0;) {
        if (k > 0 && at[k - 1] == r) {
            --k;
            continue;
        }
        if (--w != r)
            queue_[w] = std::move(queue_[r]);
    }
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(at.size()));
    return taken;
}

std::optional<Batch>
BatchScheduler::formContinuous(double now, const PlanKey *affinity)
{
    if (queue_.empty())
        return std::nullopt;

    // Refill with the worker's resident plan when possible (no
    // weight reload), unless the head of the queue is starving —
    // then arrival order wins — or the plan has no queued requests.
    const PlanKey *plan = &queue_.front().key;
    if (affinity &&
        now - queue_.front().submitSeconds <= cfg_.maxWaitSeconds) {
        for (const auto &r : queue_) {
            if (r.key == *affinity) {
                plan = affinity;
                break;
            }
        }
    }

    Batch b;
    b.key = *plan;
    b.formedSeconds = now;
    b.requests = takeMatching(b.key, cfg_.maxBatch);
    return b;
}

std::optional<Batch>
BatchScheduler::nextBatch(const PlanKey *affinity)
{
    std::lock_guard<std::mutex> g(lock_);
    return formContinuous(cfg_.clock(), affinity);
}

std::optional<Batch>
BatchScheduler::waitBatch(const PlanKey *affinity)
{
    std::unique_lock<std::mutex> g(lock_);
    cv_.wait(g, [this] { return stopped_ || !queue_.empty(); });
    auto b = formContinuous(cfg_.clock(), affinity);
    if (!queue_.empty())
        cv_.notify_one();
    return b;
}

void
BatchScheduler::stop()
{
    {
        std::lock_guard<std::mutex> g(lock_);
        stopped_ = true;
    }
    cv_.notify_all();
}

bool
BatchScheduler::stopped() const
{
    std::lock_guard<std::mutex> g(lock_);
    return stopped_;
}

size_t
BatchScheduler::depth() const
{
    std::lock_guard<std::mutex> g(lock_);
    return queue_.size();
}

} // namespace vitcod::serve
