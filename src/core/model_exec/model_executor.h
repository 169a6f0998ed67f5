/**
 * @file
 * Full-model forward-pass runtime: executes an entire N-layer ViT
 * with real activations through the KernelEngine — the quantity
 * the paper's Fig. 15/17 latency results are about, where the rest
 * of the repo only times isolated attention blocks.
 *
 * Per forward: patch-embedding proxy GEMM, then per layer
 * {LayerNorm, Q/K/V projection GEMMs, per-head sparse attention
 * (SDDMM -> fused masked softmax -> SpMM) in that head's plan-
 * permuted token order through its Schedule IR layout,
 * output projection, residual, LayerNorm, MLP (GELU), residual},
 * LeViT-style token pooling + projection at stage transitions, and
 * a final LayerNorm + mean-pool + classifier GEMM. The math is the
 * layer-by-layer composition of ReferenceBlock::forwardSparse —
 * tests/core/test_model_exec.cpp holds the two implementations to
 * a ulp budget differentially.
 *
 * All activations live in a BufferArena sized once per model:
 * steady-state forwards perform zero activation allocations.
 * forwardBatch() runs a batch back to back through the same arena
 * and the same prebuilt head layouts, so no sample scans a mask.
 *
 * An executor owns mutable per-call state (arena, scratch): one
 * executor per thread. The plan and engine are borrowed and must
 * outlive the executor.
 */

#ifndef VITCOD_CORE_MODEL_EXEC_MODEL_EXECUTOR_H
#define VITCOD_CORE_MODEL_EXEC_MODEL_EXECUTOR_H

#include <memory>
#include <vector>

#include "core/model_exec/buffer_arena.h"
#include "core/model_exec/exec_trace.h"
#include "core/model_exec/model_weights.h"
#include "core/pipeline.h"
#include "core/schedule/builder.h"
#include "linalg/engine/engine.h"

namespace vitcod::core::model_exec {

/** Knobs of one executor instance. */
struct ExecutorConfig
{
    /** Classifier width. */
    size_t numClasses = 1000;

    /** Patch-feature width entering the embedding; 0 = stage 0's
     *  embedDim. */
    size_t inDim = 0;

    /** Record per-head traces (tiny cost; off for pure latency). */
    bool collectHeadTraces = true;
};

/** Whole-model forward executor over a built ModelPlan. */
class ModelExecutor
{
  public:
    /**
     * @param plan Built algorithm output; borrowed, must outlive
     *        the executor. One SparseAttentionPlan per (layer,
     *        head) is required.
     * @param weights Full weight set; the executor takes ownership.
     * @param eng Kernel executor; defaults to the shared
     *        Auto-dispatch engine.
     * @param sched Prebuilt Schedule IR for @p plan (borrowed, must
     *        outlive the executor) — what the serving path passes so
     *        the one compiled schedule drives simulator and runtime
     *        alike. nullptr builds a private schedule once here;
     *        either way the executor runs from schedule layouts and
     *        never scans a mask itself.
     */
    ModelExecutor(const core::ModelPlan *plan, ModelWeights weights,
                  ExecutorConfig cfg = {},
                  const linalg::engine::KernelEngine *eng =
                      &linalg::engine::KernelEngine::shared(),
                  const core::schedule::ModelSchedule *sched = nullptr);

    const core::ModelPlan &plan() const { return *plan_; }

    /** The schedule this executor runs from. */
    const core::schedule::ModelSchedule &schedule() const
    {
        return *schedule_;
    }
    const ExecutorConfig &config() const { return cfg_; }
    const ModelWeights &weights() const { return weights_; }
    const BufferArena &arena() const { return arena_; }

    /**
     * One forward pass: @p patches is (stage0.tokens x inDim),
     * result is (1 x numClasses) logits. When @p trace is non-null
     * it is overwritten with this call's record.
     */
    linalg::Matrix forward(const linalg::Matrix &patches,
                           ExecTrace *trace = nullptr);

    /**
     * Batch entry point: runs every input back to back through the
     * same arena and prebuilt head layouts. @p trace (when
     * non-null) accumulates times/dispatch over the whole batch
     * with batch = inputs.size().
     */
    std::vector<linalg::Matrix>
    forwardBatch(const std::vector<linalg::Matrix> &inputs,
                 ExecTrace *trace = nullptr);

    /** Analytic MACs of one forward pass (constant per config). */
    MacOps forwardMacs() const;

  private:
    /** One transformer layer in place on arena.residual(). */
    void runLayer(size_t layer, LayerTrace *lt);

    /** Token pooling + projection entering stage @p next_stage. */
    void stageTransition(size_t next_stage);

    /** Final LN + mean pool + classifier; result in kLogits. */
    void classify();

    /** Skeleton of forward(); shared by the batch path. */
    void forwardInto(const linalg::Matrix &patches, ExecTrace *trace);

    /** Reset @p trace with static per-layer fields for @p batch. */
    void initTrace(ExecTrace *trace, size_t batch) const;

    /** Fill dispatch delta, MAC counts and total time. */
    void finalizeTrace(ExecTrace *trace, size_t batch,
                       const linalg::engine::DispatchStats &before,
                       double seconds) const;

    const core::ModelPlan *plan_;
    ModelWeights weights_;
    ExecutorConfig cfg_;
    const linalg::engine::KernelEngine *engine_;

    /** Built here when the caller did not inject a schedule. */
    std::unique_ptr<core::schedule::ModelSchedule> ownSchedule_;
    /** The Schedule IR execution runs from (owned or borrowed):
     *  per-head mask layouts, nnz and MAC counts — no mask is ever
     *  scanned on the request path. */
    const core::schedule::ModelSchedule *schedule_ = nullptr;

    /** headPlans_[layer][head] -> plan, resolved once at build. */
    std::vector<std::vector<const SparseAttentionPlan *>> headPlans_;

    MacOps forwardMacs_ = 0;

    BufferArena arena_;
};

} // namespace vitcod::core::model_exec

#endif // VITCOD_CORE_MODEL_EXEC_MODEL_EXECUTOR_H
