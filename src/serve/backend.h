/**
 * @file
 * Worker-side execution backends. A ServeBackend adapts one
 * execution target to the serving runtime's unit of work — a
 * same-plan batch — and owns the serving-specific cost model:
 *
 *  - each plan is priced once: the ViTCoD backend returns the
 *    CompiledPlan's simEstimate (priced from the schedule when the
 *    plan was built), analytic Devices price a plan on its first
 *    batch per worker and memoize the result, and ModelExec runs —
 *    and re-times — every batch; batches scale the per-request cost;
 *  - switching a backend between plans pays the plan's
 *    weightLoadSeconds (stream the new model's weights), which is
 *    what makes same-plan batching profitable in simulated time and
 *    differentiates scheduler policies under mixed traffic.
 *
 * A backend instance is owned by exactly one worker thread, so it
 * keeps no locks; all cross-thread sharing happens through the
 * immutable CompiledPlan and the const Device API.
 */

#ifndef VITCOD_SERVE_BACKEND_H
#define VITCOD_SERVE_BACKEND_H

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/device.h"
#include "core/model_exec/model_executor.h"
#include "linalg/engine/engine.h"
#include "serve/plan_cache.h"

namespace vitcod::serve {

/** One worker's execution target. */
class ServeBackend
{
  public:
    /** Outcome of one batch. */
    struct BatchResult
    {
        /** Whole-batch simulated run (includes any switch cost). */
        accel::RunStats stats;
        /** Marginal simulated seconds of one request. */
        Seconds perRequestSeconds = 0;
        /** Plan-switch cost charged to this batch (0 if none). */
        Seconds switchSeconds = 0;
        bool switched = false;
    };

    ServeBackend(std::string name, double freq_ghz);
    virtual ~ServeBackend() = default;

    const std::string &name() const { return name_; }

    /** Clock for converting simulated seconds into sim::Tick. */
    double freqGhz() const { return freqGhz_; }

    /** Serve a batch of @p n requests of @p cp. */
    BatchResult runBatch(const CompiledPlan &cp, size_t n);

  protected:
    /** Cost of a single inference of @p cp on this target. */
    virtual accel::RunStats runOnce(const CompiledPlan &cp) const = 0;

  private:
    std::string name_;
    double freqGhz_;
    std::string lastPlan_;          //!< empty = cold (first batch)
};

/**
 * The ViTCoD accelerator as a serving backend: a request costs the
 * shared CompiledPlan's simEstimate, the static schedule's price —
 * nothing is compiled, simulated or re-priced on the serving fast
 * path.
 */
class ViTCoDServeBackend : public ServeBackend
{
  public:
    explicit ViTCoDServeBackend(const accel::ViTCoDConfig &cfg = {});

  protected:
    accel::RunStats runOnce(const CompiledPlan &cp) const override;
};

/**
 * Whole-model execution backend: serves each request as a full
 * N-layer forward pass (patch embed -> every transformer layer with
 * per-head sparse attention -> classifier) through a ModelExecutor,
 * reporting measured wall time — the end-to-end latency quantity the
 * paper's Fig. 15/17 speedups are about.
 *
 * Per plan key the backend keeps a resident executor (plan copy,
 * deterministic random weights, warm BufferArena, the schedule's
 * prebuilt head layouts), so steady-state traffic re-runs a warmed
 * model instead of rebuilding state — the serving analogue of the paper's one-time
 * preprocessing argument. Residency is LRU-bounded
 * (statesCapacity): unlike the shared PlanCache, this state carries
 * full weight sets (~88 MB for DeiT-Small) per worker, so unbounded
 * growth under many-task traffic would OOM. A backend is owned by
 * one worker thread; the state map needs no locks.
 */
class ModelExecServeBackend : public ServeBackend
{
  public:
    /**
     * @param eng Kernel executor; nullptr (the default) gives this
     *        backend its own Auto-dispatch engine over the shared
     *        ThreadPool, so lastTrace()'s dispatch delta counts
     *        only this worker's kernels — the shared engine's
     *        process-global counters would fold concurrent
     *        workers into each other's traces.
     * @param num_classes Classifier width of the served models.
     * @param states_capacity Max resident per-plan executors
     *        (LRU-evicted beyond it); 0 = unbounded.
     */
    explicit ModelExecServeBackend(
        const linalg::engine::KernelEngine *eng = nullptr,
        size_t num_classes = 1000, size_t states_capacity = 4);

    /** Trace of the most recent runOnce (empty before any run). */
    const core::model_exec::ExecTrace &lastTrace() const
    {
        return lastTrace_;
    }

  protected:
    accel::RunStats runOnce(const CompiledPlan &cp) const override;

  private:
    /** Resident per-plan execution state. */
    struct PlanState
    {
        core::ModelPlan plan; //!< owned copy (outlives the executor)
        /** Owned copy of the cache's compiled schedule: the executor
         *  runs from its layouts, so residency never rescans a mask
         *  or rebuilds a schedule. */
        core::schedule::ModelSchedule schedule;
        std::unique_ptr<core::model_exec::ModelExecutor> exec;
        linalg::Matrix input; //!< deterministic synthetic patches
    };

    PlanState &stateFor(const CompiledPlan &cp) const;

    /** This worker's private engine; built only when the ctor got
     *  nullptr, so injecting a pool-free engine never touches the
     *  shared ThreadPool. */
    std::unique_ptr<linalg::engine::KernelEngine> ownEngine_;
    const linalg::engine::KernelEngine *engine_;
    size_t numClasses_;
    size_t statesCapacity_;
    mutable std::unordered_map<std::string,
                               std::unique_ptr<PlanState>>
        states_;
    /** front = most recently used plan key. */
    mutable std::list<std::string> lru_;
    mutable core::model_exec::ExecTrace lastTrace_;
};

/**
 * Any analytic Device (platform models, SpAtten, Sanger). Devices
 * are deterministic in (plan, config), so each plan key is priced
 * once per worker and the result memoized.
 */
class DeviceServeBackend : public ServeBackend
{
  public:
    DeviceServeBackend(std::unique_ptr<accel::Device> dev,
                       double freq_ghz);

  protected:
    accel::RunStats runOnce(const CompiledPlan &cp) const override;

  private:
    std::unique_ptr<accel::Device> dev_;
    mutable std::unordered_map<std::string, accel::RunStats> memo_;
};

/**
 * Backend factory by spec name: "ViTCoD", "CPU", "GPU", "EdgeGPU",
 * "SpAtten", "Sanger", "ModelExec" (whole-model forward passes
 * through the ModelExecutor). ViTCoD backends take their name and
 * clock from @p hw, which must match the PlanCache's config (their
 * per-request cost is the cache's simEstimate). fatal() on unknown
 * specs.
 */
std::unique_ptr<ServeBackend>
makeServeBackend(const std::string &spec,
                 const accel::ViTCoDConfig &hw);

} // namespace vitcod::serve

#endif // VITCOD_SERVE_BACKEND_H
