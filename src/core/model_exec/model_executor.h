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
 * A batch runs as one stacked forward: ViT token counts are fixed,
 * so B samples stack into one (B*n) x d activation with no padding.
 * Every row-wise step (LayerNorm, the QKV / projection / FC1 / FC2
 * GEMMs, residual adds) is one launch over all B*n rows, so each
 * layer's weights stream once per batch. Work is per sample only
 * where samples differ: the B*H (sample, head) attention units —
 * permute, sparse attention, un-permute — which go out in one
 * KernelEngine::parallelFor per layer, and the stage-transition and
 * classifier pooling. forward() is the B = 1 case of the same code.
 * Each GEMM element is the same in-order FMA chain for any row count
 * and any row chunk, so forwardBatch(x)[b] equals forward(x[b]) bit
 * for bit on every pool size and ISA, as long as the engine's tier
 * choice (Auto picks the scalar reference below 2048 MACs) does not
 * change between the two row counts; a pinned tier always agrees.
 *
 * All activations live in a BufferArena reserved for batch 1 at
 * construction and for the largest batch seen so far after that:
 * steady-state forwards perform zero activation allocations. The
 * attention units' head operands live in per-thread scratch.
 *
 * An executor owns mutable per-call state (arena, scratch): one
 * executor per calling thread. The plan and engine are borrowed and
 * must outlive the executor.
 */

#ifndef VITCOD_CORE_MODEL_EXEC_MODEL_EXECUTOR_H
#define VITCOD_CORE_MODEL_EXEC_MODEL_EXECUTOR_H

#include <memory>
#include <span>
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
     * it is overwritten with this call's record, per-layer and
     * per-head; without one no head is timed.
     */
    linalg::Matrix forward(const linalg::Matrix &patches,
                           ExecTrace *trace = nullptr);

    /**
     * Batch entry point: one stacked forward over every input (each
     * stage0.tokens x inDim), returning one (1 x numClasses) logits
     * row per input, bitwise equal to forward() of that input. The
     * first call with a larger batch than any before grows the
     * arena's reservation. @p trace (when non-null) records the
     * whole batch with batch = inputs.size(); head times sum over
     * the samples.
     */
    std::vector<linalg::Matrix>
    forwardBatch(const std::vector<linalg::Matrix> &inputs,
                 ExecTrace *trace = nullptr);

    /** Analytic MACs of one forward pass (constant per config). */
    MacOps forwardMacs() const;

  private:
    /** One transformer layer in place on arena.residual(), which
     *  holds @p batch samples stacked row-wise. */
    void runLayer(size_t layer, size_t batch, LayerTrace *lt);

    /**
     * One attention unit: (@p sample, @p head) of @p layer, from the
     * arena's Q/K/V into its rows and columns of @p concat. Runs on
     * any pool thread; writes only that block and @p seconds.
     */
    void attendHead(size_t layer, size_t sample, size_t head,
                    linalg::Matrix &concat, double *seconds) const;

    /** Token pooling + projection entering stage @p next_stage. */
    void stageTransition(size_t next_stage, size_t batch);

    /** Final LN + mean pool + classifier; result in kLogits. */
    void classify(size_t batch);

    /** The stacked forward behind forward() and forwardBatch(). */
    void run(std::span<const linalg::Matrix> inputs, ExecTrace *trace);

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
    /** Per-(sample, head) attention times of the current layer. */
    std::vector<double> unitSeconds_;
};

} // namespace vitcod::core::model_exec

#endif // VITCOD_CORE_MODEL_EXEC_MODEL_EXECUTOR_H
