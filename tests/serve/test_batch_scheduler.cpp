/**
 * @file
 * BatchScheduler under a deterministic injected clock: continuous
 * batching's eager dispatch, plan gathering, resident-plan affinity
 * and its starvation guard, the maxBatch cap, copy-free batch
 * formation, a seeded differential against a plain-deque model of
 * the formation rule, and the stop() drain path.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "serve/batch_scheduler.h"

namespace vitcod::serve {
namespace {

PlanKey
keyOf(const std::string &model)
{
    PlanKey k;
    k.model = model;
    return k;
}

InferenceRequest
reqOf(uint64_t id, const std::string &model)
{
    InferenceRequest r;
    r.id = id;
    r.key = keyOf(model);
    return r;
}

/** Scheduler with a hand-driven clock. */
struct Harness
{
    std::shared_ptr<double> now = std::make_shared<double>(0.0);
    BatchScheduler sched;

    explicit Harness(size_t max_batch = 8, double max_wait = 10.0)
        : sched(makeConfig(max_batch, max_wait, now))
    {
    }

    static SchedulerConfig
    makeConfig(size_t max_batch, double max_wait,
               std::shared_ptr<double> now)
    {
        SchedulerConfig cfg;
        cfg.maxBatch = max_batch;
        cfg.maxWaitSeconds = max_wait;
        cfg.clock = [now] { return *now; };
        return cfg;
    }
};

TEST(BatchScheduler, DefaultConfigDispatchesALoneRequestAtOnce)
{
    // The default configuration batches continuously: a lone
    // request leaves at the instant it arrived instead of waiting
    // for company or for maxWaitSeconds to pass.
    SchedulerConfig cfg;
    cfg.clock = [] { return 0.0; };
    BatchScheduler sched(cfg);
    sched.submit(reqOf(1, "A"));

    auto b = sched.nextBatch();
    ASSERT_TRUE(b);
    ASSERT_EQ(b->requests.size(), 1u);
    EXPECT_EQ(b->requests[0].id, 1u);
    EXPECT_EQ(b->formedSeconds, 0.0);
    EXPECT_EQ(sched.depth(), 0u);
}

TEST(BatchScheduler, DepthTracksQueuedRequests)
{
    Harness h;
    EXPECT_EQ(h.sched.depth(), 0u);
    h.sched.submit(reqOf(1, "A"));
    h.sched.submit(reqOf(2, "A"));
    EXPECT_EQ(h.sched.depth(), 2u);
    h.sched.nextBatch();
    EXPECT_EQ(h.sched.depth(), 0u);
}

TEST(BatchScheduler, WaitBatchWakesOnSubmitAndStops)
{
    BatchScheduler sched{SchedulerConfig{}}; // wall clock

    std::thread consumer([&] {
        auto b = sched.waitBatch(); // blocks until the submit
        ASSERT_TRUE(b);
        EXPECT_EQ(b->requests.size(), 1u);
        EXPECT_FALSE(sched.waitBatch()); // stopped and empty
    });

    sched.submit(reqOf(1, "A"));
    sched.stop();
    consumer.join();
}

TEST(BatchSchedulerContinuous, DispatchesEagerlyWithoutDeadline)
{
    // A lone request never waits for a batch to fill or for
    // maxWaitSeconds to pass: a free worker takes it immediately.
    Harness h(/*max_batch=*/8, /*max_wait=*/100.0);
    h.sched.submit(reqOf(1, "A"));
    auto b = h.sched.nextBatch();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->requests.size(), 1u);
}

TEST(BatchSchedulerContinuous, GathersPlanAcrossInterleavedArrivals)
{
    // Not an arrival-order prefix: the batch collects every queued
    // A (arrival order preserved), then every B.
    Harness h;
    h.sched.submit(reqOf(1, "A"));
    h.sched.submit(reqOf(2, "B"));
    h.sched.submit(reqOf(3, "A"));
    h.sched.submit(reqOf(4, "B"));
    h.sched.submit(reqOf(5, "A"));

    auto b1 = h.sched.nextBatch();
    ASSERT_TRUE(b1);
    EXPECT_EQ(b1->key.model, "A");
    ASSERT_EQ(b1->requests.size(), 3u);
    EXPECT_EQ(b1->requests[0].id, 1u);
    EXPECT_EQ(b1->requests[1].id, 3u);
    EXPECT_EQ(b1->requests[2].id, 5u);

    auto b2 = h.sched.nextBatch();
    ASSERT_TRUE(b2);
    EXPECT_EQ(b2->key.model, "B");
    ASSERT_EQ(b2->requests.size(), 2u);
    EXPECT_EQ(b2->requests[0].id, 2u);
    EXPECT_EQ(b2->requests[1].id, 4u);
}

TEST(BatchSchedulerContinuous, PrefersTheWorkersResidentPlan)
{
    // A worker that just ran B tops up with queued B requests (no
    // weight reload) even though an A arrived first.
    Harness h;
    h.sched.submit(reqOf(1, "A"));
    h.sched.submit(reqOf(2, "B"));

    const PlanKey resident = keyOf("B");
    auto b1 = h.sched.nextBatch(&resident);
    ASSERT_TRUE(b1);
    EXPECT_EQ(b1->key.model, "B");

    auto b2 = h.sched.nextBatch(&resident);
    ASSERT_TRUE(b2);
    EXPECT_EQ(b2->key.model, "A");
}

TEST(BatchSchedulerContinuous, StarvationGuardOverridesAffinity)
{
    // Once the head of the queue has waited past maxWaitSeconds,
    // arrival order beats plan affinity: B workers cannot starve A.
    Harness h(/*max_batch=*/8, /*max_wait=*/1.0);
    h.sched.submit(reqOf(1, "A"));
    h.sched.submit(reqOf(2, "B"));

    const PlanKey resident = keyOf("B");
    *h.now = 1.5; // head (A) has waited 1.5 > maxWait
    auto b = h.sched.nextBatch(&resident);
    ASSERT_TRUE(b);
    EXPECT_EQ(b->key.model, "A");
}

TEST(BatchSchedulerContinuous, AffinityIgnoredWhenPlanNotQueued)
{
    Harness h;
    h.sched.submit(reqOf(1, "A"));
    const PlanKey resident = keyOf("C"); // nothing queued for C
    auto b = h.sched.nextBatch(&resident);
    ASSERT_TRUE(b);
    EXPECT_EQ(b->key.model, "A");
}

TEST(BatchSchedulerContinuous, RespectsMaxBatch)
{
    Harness h(/*max_batch=*/3);
    for (uint64_t i = 1; i <= 7; ++i)
        h.sched.submit(reqOf(i, "A"));
    EXPECT_EQ(h.sched.nextBatch()->requests.size(), 3u);
    EXPECT_EQ(h.sched.nextBatch()->requests.size(), 3u);
    EXPECT_EQ(h.sched.nextBatch()->requests.size(), 1u);
    EXPECT_EQ(h.sched.depth(), 0u);
}

/**
 * The formation rule restated over a plain deque: the plan is the
 * head's, or @p affinity's when it is queued and the head has not
 * waited past @p max_wait; take up to @p max_batch of that plan in
 * arrival order. Returns the taken ids.
 */
std::vector<uint64_t>
modelBatch(std::deque<InferenceRequest> &q, const PlanKey *affinity,
           double now, size_t max_batch, double max_wait)
{
    PlanKey plan = q.front().key;
    if (affinity && now - q.front().submitSeconds <= max_wait)
        for (const auto &r : q)
            if (r.key == *affinity) {
                plan = *affinity;
                break;
            }
    std::vector<uint64_t> ids;
    std::deque<InferenceRequest> rest;
    for (auto &r : q) {
        if (ids.size() < max_batch && r.key == plan)
            ids.push_back(r.id);
        else
            rest.push_back(std::move(r));
    }
    q = std::move(rest);
    return ids;
}

TEST(BatchSchedulerContinuous, MatchesAPlainModelOnRandomTraffic)
{
    // Interleaved plans, affinities and starving heads: batch
    // formation compacts only the queue prefix it scanned, which
    // must leave the same batches and the same queue order as
    // rebuilding the whole queue.
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t maxBatch = 1 + rng.uniformInt(8);
        const double maxWait =
            0.5 * static_cast<double>(rng.uniformInt(5));
        const uint64_t plans = 1 + rng.uniformInt(4);
        Harness h(maxBatch, maxWait);
        std::deque<InferenceRequest> model;
        uint64_t nextId = 1;
        for (int step = 0; step < 300; ++step) {
            *h.now += 0.1;
            const std::string m(
                1, static_cast<char>('A' + rng.uniformInt(plans)));
            if (rng.uniformInt(3) != 0) {
                InferenceRequest r = reqOf(nextId++, m);
                r.submitSeconds = *h.now;
                model.push_back(r);
                h.sched.submit(std::move(r));
                continue;
            }
            const PlanKey resident = keyOf(m);
            const PlanKey *aff = rng.uniformInt(2) ? &resident : nullptr;
            auto b = h.sched.nextBatch(aff);
            if (model.empty()) {
                ASSERT_FALSE(b);
                continue;
            }
            const auto want =
                modelBatch(model, aff, *h.now, maxBatch, maxWait);
            ASSERT_TRUE(b);
            ASSERT_EQ(b->requests.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i)
                ASSERT_EQ(b->requests[i].id, want[i])
                    << "trial " << trial << " step " << step;
            ASSERT_EQ(h.sched.depth(), model.size());
        }
    }
}

/**
 * Batch formation must *move* requests from the queue into the
 * batch, never copy them. A copy would reallocate the (non-SSO)
 * model string, so surviving heap pointers prove the whole
 * submit -> queue -> batch path is copy-free.
 */
TEST(BatchScheduler, BatchFormationMovesRequestsWithoutCopying)
{
    const std::string longA(128, 'a'); // defeats SSO
    const std::string longB(128, 'b');
    Harness h(/*max_batch=*/8, /*max_wait=*/0.0);

    std::vector<const char *> heap;
    for (uint64_t i = 1; i <= 6; ++i) {
        InferenceRequest r = reqOf(i, i % 2 ? longA : longB);
        heap.push_back(r.key.model.data());
        h.sched.submit(std::move(r));
    }

    size_t matched = 0;
    while (auto b = h.sched.nextBatch())
        for (const auto &r : b->requests) {
            ASSERT_GE(r.id, 1u);
            EXPECT_EQ(r.key.model.data(), heap[r.id - 1])
                << "copied id " << r.id;
            ++matched;
        }
    EXPECT_EQ(matched, 6u);
}

} // namespace
} // namespace vitcod::serve
