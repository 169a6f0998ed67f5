/**
 * @file
 * Per-layer / per-head execution record of one ModelExecutor
 * forward (or forwardBatch) call: wall times of each block phase,
 * mask workload sizes, analytic MAC counts and the KernelEngine
 * dispatch-counter delta the call produced.
 *
 * Traces split into a *structural* part — shapes, mask nnz, global
 * token counts, MACs, dispatch counts — that is bit-deterministic
 * in (plan, engine config, thread count), and a *timing* part that
 * is machine-dependent. write() prints only the structural part, so
 * its bytes are reproducible; tests/data/model_exec_trace.golden
 * holds them for a pinned tiny model. Timings stay in the struct
 * for run_model, the benchmark driver and the serving backend.
 */

#ifndef VITCOD_CORE_MODEL_EXEC_EXEC_TRACE_H
#define VITCOD_CORE_MODEL_EXEC_EXEC_TRACE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.h"
#include "linalg/engine/engine.h"

namespace vitcod::core::model_exec {

/** One attention head's execution record within a layer. */
struct HeadTrace
{
    size_t head = 0;
    size_t maskNnz = 0;         //!< plan mask nonzeros
    size_t numGlobalTokens = 0; //!< plan N_gt
    double seconds = 0;         //!< sparse attention wall time
};

/** One transformer layer's execution record. */
struct LayerTrace
{
    size_t layer = 0;
    size_t tokens = 0;
    size_t heads = 0;
    size_t headDim = 0;
    size_t embedDim = 0;
    MacOps macs = 0; //!< analytic GEMM + sparse-attention MACs

    double qkvSeconds = 0;  //!< Q/K/V projection GEMMs
    double attnSeconds = 0; //!< all heads' sparse attention
    double projSeconds = 0; //!< output projection + residual
    double mlpSeconds = 0;  //!< LN + FC1 + GELU + FC2 + residual

    std::vector<HeadTrace> headTraces;

    double seconds() const;
};

/** Whole-forward execution record. */
struct ExecTrace
{
    std::string model;
    size_t batch = 0; //!< inputs this trace accumulates over

    double patchEmbedSeconds = 0;
    double classifierSeconds = 0;
    double totalSeconds = 0;
    MacOps totalMacs = 0;

    /** Engine dispatch-counter delta over the traced call. */
    linalg::engine::DispatchStats dispatch;

    std::vector<LayerTrace> layers;

    /**
     * Write the structural part as a line-oriented text document;
     * wall times are left out.
     */
    void write(std::ostream &os) const;
};

} // namespace vitcod::core::model_exec

#endif // VITCOD_CORE_MODEL_EXEC_EXEC_TRACE_H
