/**
 * @file
 * Reusable fixed-size thread pool with a deterministic parallel-for.
 * One pool serves two callers with different lifetimes:
 *
 *  - the KernelEngine's data-parallel kernels, which carve a row
 *    range into fixed chunks and block until every chunk ran
 *    (parallelFor); chunk boundaries depend only on (range, grain,
 *    threads), never on scheduling, so each chunk writes a disjoint
 *    output slice and results are bitwise reproducible;
 *  - the serve WorkerPool's long-running worker loops, which occupy
 *    one pool thread each until the scheduler drains (submit).
 *
 * parallelFor issued from inside a task of the SAME pool — a
 * worker's task or a chunk the parallelFor caller runs itself — runs
 * inline on the calling thread: nested parallelism never deadlocks
 * on pool capacity, it just serializes. Calls from a task of a
 * different pool stay parallel (serving workers on the WorkerPool's
 * pool still fan kernel work out over the engine's shared pool).
 */

#ifndef VITCOD_LINALG_ENGINE_THREAD_POOL_H
#define VITCOD_LINALG_ENGINE_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vitcod::linalg::engine {

/** Fixed pool of worker threads; joins on destruction. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 picks hardware_concurrency. */
    explicit ThreadPool(size_t threads = 0);

    /** Drains queued tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t threads() const { return workers_.size(); }

    /**
     * Enqueue one task. Tasks run in FIFO order across the pool; a
     * long-running task pins one worker until it returns.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void waitIdle();

    /**
     * Run body(chunk_begin, chunk_end) over [begin, end) split into
     * chunks of at most @p grain indices. Blocks until all chunks
     * completed. The caller participates, so the pool being busy (or
     * empty) only costs parallelism, never progress. Chunking is a
     * pure function of the arguments: output is deterministic as
     * long as chunks touch disjoint state.
     *
     * The caller runs its chunks as a task of this pool, so a
     * parallelFor nested in any chunk runs inline on the thread
     * executing that chunk.
     *
     * @param grain Maximum chunk length; 0 picks one chunk per
     *        participating thread, ceil(n / (threads() + 1)).
     * @return Whether chunks were handed to pool workers (false when
     *         the whole range ran inline on the caller).
     */
    bool parallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<void(size_t, size_t)> &body);

    /**
     * Process-wide default pool used by KernelEngine::shared().
     * Sized to hardware_concurrency, created on first use.
     */
    static ThreadPool &shared();

  private:
    void workerMain();

    std::mutex lock_;
    std::condition_variable wake_;     //!< workers: queue non-empty/stop
    std::condition_variable idle_;     //!< waiters: all tasks done
    std::deque<std::function<void()>> queue_;
    size_t inFlight_ = 0;              //!< popped but not yet finished
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace vitcod::linalg::engine

#endif // VITCOD_LINALG_ENGINE_THREAD_POOL_H
