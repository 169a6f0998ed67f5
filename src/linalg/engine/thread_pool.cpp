#include "linalg/engine/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "obs/trace.h"

namespace vitcod::linalg::engine {

namespace {

/**
 * Pool whose task the current thread is executing (null outside any
 * pool). parallelFor inlines only when called from a task of the
 * SAME pool — that is the deadlock case (helpers could wait behind
 * the very task that spawned them). A task of one pool fanning out
 * on a different pool is safe and stays parallel, e.g. serving
 * workers (WorkerPool's own pool) driving KernelEngine::shared()'s
 * pool.
 */
thread_local const ThreadPool *current_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] {
            obs::TraceSession::instance().setThreadName(
                "pool-" + std::to_string(i));
            workerMain();
        });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(lock_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    VITCOD_ASSERT(task, "null task submitted to ThreadPool");
    {
        std::lock_guard<std::mutex> g(lock_);
        VITCOD_ASSERT(!stop_, "submit on stopping ThreadPool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> g(lock_);
    idle_.wait(g, [this] { return queue_.empty() && inFlight_ == 0; });
}

void
ThreadPool::workerMain()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> g(lock_);
            wake_.wait(g, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        const ThreadPool *prev = current_pool;
        current_pool = this;
        task();
        current_pool = prev;
        {
            std::lock_guard<std::mutex> g(lock_);
            --inFlight_;
            if (queue_.empty() && inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

bool
ThreadPool::parallelFor(size_t begin, size_t end, size_t grain,
                        const std::function<void(size_t, size_t)> &body)
{
    if (begin >= end)
        return false;
    const size_t n = end - begin;
    if (grain == 0) // one chunk per participating thread
        grain = (n + threads()) / (threads() + 1);

    // Inline when called from one of THIS pool's own tasks (nested
    // call — fanning out could deadlock behind ourselves), when the
    // pool has no parallelism, or when one chunk covers the range.
    if (current_pool == this || threads() <= 1 || n <= grain) {
        body(begin, end);
        return false;
    }

    const size_t chunks = (n + grain - 1) / grain;
    // Chunk claiming is dynamic but chunk *boundaries* are fixed, so
    // any schedule produces identical writes.
    auto next = std::make_shared<std::atomic<size_t>>(0);
    auto done = std::make_shared<std::atomic<size_t>>(0);
    auto done_lock = std::make_shared<std::mutex>();
    auto done_cv = std::make_shared<std::condition_variable>();

    auto run_chunks = [next, done, done_lock, done_cv, begin, end,
                       grain, chunks, &body] {
        for (;;) {
            const size_t c = next->fetch_add(1);
            if (c >= chunks)
                break;
            const size_t c0 = begin + c * grain;
            const size_t c1 = std::min(end, c0 + grain);
            body(c0, c1);
            if (done->fetch_add(1) + 1 == chunks) {
                std::lock_guard<std::mutex> g(*done_lock);
                done_cv->notify_all();
            }
        }
    };

    // body lives on this stack frame past every helper's return (we
    // block below), but copy the shared state into the helpers.
    const size_t helpers = std::min(threads(), chunks - 1);
    for (size_t i = 0; i < helpers; ++i)
        submit(run_chunks);

    // The caller participates as a task of this pool, so a nested
    // parallelFor from any chunk (not only a worker's) runs inline
    // instead of re-forking onto workers that are busy with ours.
    const ThreadPool *prev = current_pool;
    current_pool = this;
    run_chunks();
    current_pool = prev;
    std::unique_lock<std::mutex> g(*done_lock);
    done_cv->wait(g, [&] { return done->load() == chunks; });
    return true;
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

} // namespace vitcod::linalg::engine
