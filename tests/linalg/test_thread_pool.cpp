/**
 * @file
 * ThreadPool unit and thread-safety tests: task execution, idle
 * waiting, parallel-for coverage/determinism (every index exactly
 * once, bitwise-identical results over repeated runs), nested
 * parallel-for running inline (from a worker's task and from the
 * caller's own chunk), and concurrent parallel-for callers
 * sharing one pool. Built with the TSan job's binaries so data races
 * in the pool surface in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/engine/thread_pool.h"

namespace vitcod::linalg::engine {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (size_t n : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
        std::vector<std::atomic<uint32_t>> hits(n);
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(0, n, 3, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForEmptyRangeAndZeroGrain)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(5, 5, 4, [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // grain 0 = one chunk per participating thread (2 workers plus
    // the caller): ceil(33 / 3) = 11, and the range is fully covered.
    std::vector<std::atomic<uint32_t>> hits(33);
    for (auto &h : hits)
        h.store(0);
    std::atomic<uint32_t> chunks{0};
    pool.parallelFor(0, 33, 0, [&](size_t b, size_t e) {
        EXPECT_EQ(e - b, 11u);
        chunks.fetch_add(1);
        for (size_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    EXPECT_EQ(chunks.load(), 3u);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, ParallelForIsDeterministicOverRepeatedRuns)
{
    // Chunk-local accumulation into disjoint slices must produce the
    // same bits no matter how chunks are scheduled.
    ThreadPool pool(4);
    constexpr size_t kN = 512;
    std::vector<float> in(kN);
    for (size_t i = 0; i < kN; ++i)
        in[i] = static_cast<float>(i % 37) * 0.125f + 0.001f;

    std::vector<float> first;
    for (int run = 0; run < 16; ++run) {
        std::vector<float> out(kN, 0.0f);
        pool.parallelFor(0, kN, 8, [&](size_t b, size_t e) {
            float acc = 0.0f;
            for (size_t i = b; i < e; ++i) {
                acc += in[i];
                out[i] = acc; // prefix within the chunk: order-sensitive
            }
        });
        if (run == 0)
            first = out;
        else
            EXPECT_EQ(out, first) << "run " << run;
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(2);
    std::atomic<uint32_t> total{0};
    pool.submit([&] {
        // From inside a pool task: must not deadlock on capacity.
        pool.parallelFor(0, 100, 10, [&](size_t b, size_t e) {
            total.fetch_add(static_cast<uint32_t>(e - b));
        });
    });
    pool.waitIdle();
    EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, NestedParallelForFromCallersChunkRunsInline)
{
    // Both workers are held busy, so every outer chunk runs on the
    // caller. A parallelFor nested in one of those chunks must run
    // inline there, as one body call over its whole range, and
    // report that it did not fork.
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    for (int i = 0; i < 2; ++i)
        pool.submit([&release] {
            while (!release.load())
                std::this_thread::yield();
        });
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::pair<size_t, size_t>> nested; // caller-only
    bool nested_forked = false;
    const bool outer_forked =
        pool.parallelFor(0, 4, 1, [&](size_t, size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            nested_forked |=
                pool.parallelFor(0, 100, 10, [&](size_t b, size_t e) {
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                    nested.emplace_back(b, e);
                });
        });
    release.store(true);
    pool.waitIdle();

    EXPECT_TRUE(outer_forked);
    EXPECT_FALSE(nested_forked);
    ASSERT_EQ(nested.size(), 4u);
    for (const auto &[b, e] : nested) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 100u);
    }
}

TEST(ThreadPool, ConcurrentParallelForCallersShareOnePool)
{
    ThreadPool pool(4);
    constexpr size_t kCallers = 4;
    constexpr size_t kN = 256;
    std::vector<std::vector<uint32_t>> results(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (size_t t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            std::vector<uint32_t> out(kN, 0);
            pool.parallelFor(0, kN, 16, [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i)
                    out[i] = static_cast<uint32_t>(i * (t + 1));
            });
            results[t] = std::move(out);
        });
    }
    for (auto &c : callers)
        c.join();
    for (size_t t = 0; t < kCallers; ++t)
        for (size_t i = 0; i < kN; ++i)
            ASSERT_EQ(results[t][i], i * (t + 1));
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    std::vector<uint32_t> out(64, 0);
    pool.parallelFor(0, 64, 8, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            out[i] = 1;
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0u), 64u);
}

TEST(ThreadPool, SharedPoolIsUsableAndStable)
{
    ThreadPool &a = ThreadPool::shared();
    ThreadPool &b = ThreadPool::shared();
    EXPECT_EQ(&a, &b);
    std::atomic<int> ran{0};
    a.submit([&ran] { ran.store(1); });
    a.waitIdle();
    EXPECT_EQ(ran.load(), 1);
}

} // namespace
} // namespace vitcod::linalg::engine
