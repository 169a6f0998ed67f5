/**
 * @file
 * The design-space exploration engine (the "overall design space
 * exploration" usage paper Sec. VII advertises, automated): given a
 * workload bundle — one or more (model, sparsity, AE, scope) tasks,
 * each compiled once into a ModelPlan — and a HwConfigSpace, the
 * Explorer prices candidate accelerator configurations through the
 * Schedule IR (ScheduleBuilder -> ViTCoDAccelerator::runSchedule)
 * and accumulates the Pareto frontier over (latency, energy proxy,
 * area proxy).
 *
 * Cost structure: the expensive artifacts are reused aggressively.
 * Each workload's ModelPlan (mask generation + AE fitting) is built
 * exactly once per Explorer. Schedules are memoized by their
 * schedule-relevant HardwareParams, so pricing-only axes (off-chip
 * bandwidth and the pipeline FIFO/latency knobs — the only swept
 * knobs outside HardwareParams) re-price a cached schedule instead
 * of rebuilding it. Point evaluations are
 * independent and fan out over the engine ThreadPool; the search is
 * exhaustive, so its frontier is exact for the space and bitwise
 * deterministic in (bundle, space, simMode) — it never depends on
 * the thread count or on thread scheduling.
 */

#ifndef VITCOD_DSE_EXPLORER_H
#define VITCOD_DSE_EXPLORER_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dse/design_space.h"
#include "dse/pareto.h"
#include "linalg/engine/thread_pool.h"

namespace vitcod::dse {

/** Knobs of one Explorer instance. */
struct ExplorerConfig
{
    /** Worker threads for point fan-out; 0 = shared engine pool. */
    size_t threads = 0;

    /**
     * Simulator that prices every candidate (objective mode).
     * Pipelined makes the FIFO-depth / stage-latency axes
     * (HwConfigSpace::pipeFifoDepth/pipeStageLatency) matter and
     * charges real backpressure stalls; pricing-only, so memoized
     * schedules are shared across the new axes either way.
     */
    sim::SimMode simMode = sim::SimMode::Analytic;
};

/** Outcome of one search run. */
struct DseResult
{
    ParetoFrontier frontier;

    /** Unique design points priced (== frontier.evaluated). */
    uint64_t evaluated = 0;

    /** Objectives of the space's base (untuned) configuration. */
    Objectives baseline;

    /** Wall time of the search (informational; never serialized). */
    double wallSeconds = 0.0;
};

/** Design-space exploration engine over one workload bundle. */
class Explorer
{
  public:
    /**
     * Builds every workload's ModelPlan up front (the one-time
     * algorithm cost; dominates small searches) and validates the
     * space. @p workloads must be non-empty with positive weights.
     */
    Explorer(std::vector<WorkloadSpec> workloads, HwConfigSpace space,
             ExplorerConfig cfg = {});

    ~Explorer();

    Explorer(const Explorer &) = delete;
    Explorer &operator=(const Explorer &) = delete;

    const HwConfigSpace &space() const { return space_; }

    /** The bundle's specs, in construction order. */
    const std::vector<WorkloadSpec> &workloads() const
    {
        return specs_;
    }

    /** Objectives of the space's base configuration. */
    const Objectives &baseline() const { return baseline_; }

    /**
     * Price @p cfg against the whole bundle: weighted sums of the
     * simulated latency and energy plus the configuration's area
     * proxy. Shares the schedule memo with the search, so probing
     * the base configuration (or any external candidate) is cheap.
     */
    Objectives evaluateConfig(const accel::ViTCoDConfig &cfg) const;

    /** Evaluate grid point @p index. @pre space().valid(index). */
    DsePoint evaluateIndex(size_t index) const;

    /**
     * Price every valid grid point. The frontier is exact for the
     * space; cost is one evaluation per point (parallelized, with
     * schedules shared across pricing-only axes).
     */
    DseResult exhaustive();

  private:
    struct Workload; //!< spec + built ModelPlan

    /** Schedule for (workload w, params key), memoized. */
    std::shared_ptr<const core::schedule::ModelSchedule>
    scheduleFor(size_t w, const accel::ViTCoDConfig &cfg) const;

    /** Deterministic fan-out over [0, n) on the configured pool. */
    void parallelOver(size_t n,
                      const std::function<void(size_t)> &fn) const;

    std::vector<WorkloadSpec> specs_;
    std::vector<Workload> workloads_;
    HwConfigSpace space_;
    ExplorerConfig cfg_;
    Objectives baseline_; //!< base config priced at construction

    std::unique_ptr<linalg::engine::ThreadPool> ownPool_;
    linalg::engine::ThreadPool *pool_;

    mutable std::mutex schedLock_;
    mutable std::map<
        std::string,
        std::shared_ptr<const core::schedule::ModelSchedule>>
        schedules_;
};

} // namespace vitcod::dse

#endif // VITCOD_DSE_EXPLORER_H
