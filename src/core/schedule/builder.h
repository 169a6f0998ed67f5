/**
 * @file
 * The network parser of the paper's Fig. 14 as a single reusable
 * pass: ScheduleBuilder walks a built ModelPlan once and derives
 * every statically-known scheduling decision — workload split, MAC
 * line allocation, CSC walk cost, Q-residency window and LRU gather
 * count, SRAM spill plan, per-phase DRAM streams, runtime mask
 * layouts and exact MAC counts — into a ModelSchedule. The
 * instruction compiler, the analytic simulator and the ModelExecutor
 * all consume the result instead of re-deriving it. Head layouts
 * come from linalg::engine::buildMaskLayout at its one CSR/CSC rule
 * (kCscSparsityThreshold), so they equal the layout
 * KernelEngine::sparseAttention builds per call.
 */

#ifndef VITCOD_CORE_SCHEDULE_BUILDER_H
#define VITCOD_CORE_SCHEDULE_BUILDER_H

#include "core/pipeline.h"
#include "core/schedule/schedule.h"

namespace vitcod::core::schedule {

/** Knobs of one builder instance. */
struct BuilderConfig
{
    HardwareParams hw;

    /**
     * Materialize the runtime CSR/CSC head layouts (an O(mask bits)
     * scan per head). Required for schedules a ModelExecutor will
     * run from; pricing-only consumers (the analytic simulator, the
     * instruction compiler) skip it.
     */
    bool buildLayouts = true;
};

/** One-pass plan -> schedule compiler front end. */
class ScheduleBuilder
{
  public:
    explicit ScheduleBuilder(BuilderConfig cfg = {});

    const BuilderConfig &config() const { return cfg_; }

    /**
     * Build the complete schedule for @p plan. Dense-block and stem
     * phases are populated only when @p end_to_end; the attention
     * and runtime-execution parts are always present. Pure function
     * of (plan, cfg). O(total mask bits) — the only full mask scan
     * in the system.
     */
    ModelSchedule build(const core::ModelPlan &plan,
                        bool end_to_end) const;

    /** One layer's attention schedule (no dense block). */
    LayerSchedule buildAttentionLayer(const core::ModelPlan &plan,
                                      size_t layer) const;

  private:
    void fillDenseBlock(LayerSchedule &ls,
                        const core::ModelPlan &plan) const;

    BuilderConfig cfg_;
};

} // namespace vitcod::core::schedule

#endif // VITCOD_CORE_SCHEDULE_BUILDER_H
