/**
 * @file
 * Shared, thread-safe cache of compiled serving plans. Each distinct
 * PlanKey is built exactly once — the ViTCoD algorithm pipeline
 * (Fig. 10), the static schedule and its simulated price all come
 * from the first request for a task — and the resulting immutable
 * CompiledPlan is shared by reference across every worker thereafter
 * ("one-time compilation cost for each task", Sec. V-B3).
 *
 * Concurrency: the first requester of a key publishes an in-flight
 * slot and compiles *outside* the cache lock; concurrent requesters
 * of the same key block on a shared_future instead of compiling
 * twice. An optional capacity bounds the cache with LRU eviction.
 */

#ifndef VITCOD_SERVE_PLAN_CACHE_H
#define VITCOD_SERVE_PLAN_CACHE_H

#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "accel/vitcod_accel.h"
#include "core/pipeline.h"
#include "serve/request.h"

namespace vitcod::serve {

/** Everything a worker needs to serve one task; immutable once built. */
struct CompiledPlan
{
    PlanKey key;
    core::ModelPlan plan;      //!< algorithm output (all backends)

    /**
     * The compiled Schedule IR: masks scanned and the static
     * schedule derived exactly once per task. The simulated
     * estimate below is priced from it, and ModelExec workers
     * execute from its per-head layouts.
     */
    core::schedule::ModelSchedule schedule;

    /**
     * ViTCoD-simulated cost of one inference of this plan (priced
     * from the schedule at build time). It is what admission
     * predicts with and what the ViTCoD backend charges per
     * request; ServerStats reports it against each backend's
     * measured per-request latency.
     */
    accel::RunStats simEstimate;

    /**
     * Simulated cost of switching a backend onto this plan: stream
     * the model weights over the configured DRAM. Charged by a
     * backend whenever consecutive batches change plans.
     */
    Seconds weightLoadSeconds = 0;

    /** Wall time the build actually took. */
    double compileWallSeconds = 0;
};

/** Estimated parameter bytes of @p m at @p elem_bytes per weight. */
Bytes modelWeightBytes(const model::VitModelConfig &m,
                       size_t elem_bytes);

/** Thread-safe LRU cache of CompiledPlans. */
class PlanCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        double compileWallSeconds = 0; //!< total time spent compiling

        double
        hitRate() const
        {
            const uint64_t n = hits + misses;
            return n ? static_cast<double>(hits) /
                           static_cast<double>(n)
                     : 0.0;
        }
    };

    /**
     * @param hw Hardware configuration the plans are priced for.
     * @param capacity Max resident plans; 0 = unbounded.
     */
    explicit PlanCache(accel::ViTCoDConfig hw = {}, size_t capacity = 0);

    /**
     * Resolve @p key, compiling on first sight. Blocks while another
     * thread compiles the same key. Never returns null.
     */
    std::shared_ptr<const CompiledPlan> get(const PlanKey &key);

    Stats stats() const;

    /** Resident (fully built) plan count. */
    size_t size() const;

    const accel::ViTCoDConfig &hwConfig() const { return hw_; }

  private:
    using PlanPtr = std::shared_ptr<const CompiledPlan>;

    struct Entry
    {
        std::shared_future<PlanPtr> future;
        std::list<std::string>::iterator lruIt; //!< valid when ready
        bool ready = false;
    };

    /** Build one plan; runs outside lock_. */
    PlanPtr build(const PlanKey &key) const;

    accel::ViTCoDConfig hw_;
    size_t capacity_;

    mutable std::mutex lock_;
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_; //!< front = most recently used
    Stats stats_;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_PLAN_CACHE_H
