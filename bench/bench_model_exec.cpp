/**
 * @file
 * Full-model forward-pass throughput bench and the second source of
 * perf-regression CI JSON rows. For each model (DeiT-Tiny, and
 * DeiT-Small outside --smoke) it builds the ViTCoD plan at the
 * model's nominal sparsity, draws one weight set, and times the
 * whole forward pass — patch embed, every layer's QKV / per-head
 * sparse attention / projection / MLP, classifier — three ways:
 *
 *  - ModelExecutor on a Reference-pinned engine (the scalar
 *    baseline),
 *  - ModelExecutor on an Optimized engine, single-threaded,
 *  - ModelExecutor on an Optimized engine over a ThreadPool
 *    (--threads N, default 4).
 *
 * A fourth row times forwardBatch(4) on the pooled executor, one
 * stacked forward, reports its amortization (single-forward ms over
 * per-sample ms) and fails the run if any sample's logits differ
 * bitwise from forward() of that sample.
 *
 * One JsonRow per measurement; speedups are ratios of two timings
 * from the same run, so the CI gate (bench/baselines/
 * model_exec_baseline.json via scripts/check_perf_regression.py)
 * is robust to runner speed. The gated row: DeiT-Tiny forward at
 * threads=1 must hold its min_speedup floor.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "linalg/engine/thread_pool.h"

using namespace vitcod;
using core::model_exec::ExecTrace;
using core::model_exec::ExecutorConfig;
using core::model_exec::ModelExecutor;
using core::model_exec::ModelWeights;

namespace {

/** Best-of-R wall time of @p fn in milliseconds. */
template <typename Fn>
double
bestMs(size_t reps, Fn &&fn)
{
    double best = 1e300;
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(t1 - t0)
                      .count());
    }
    return best;
}

double
sink(const linalg::Matrix &m)
{
    // Cheap data dependence so the optimizer cannot drop the run.
    return static_cast<double>(m(0, 0)) +
           m(m.rows() - 1, m.cols() - 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::CliOptions opts = bench::parseCli(argc, argv);
    // Best-of-2 even in smoke: the gated speedup is a ratio of two
    // single measurements, and one scheduling hiccup on a shared CI
    // runner should not fail the perf gate.
    const size_t reps = opts.smoke ? 2 : 3;
    const size_t mt_threads = opts.threads ? opts.threads : 4;
    const size_t num_classes = 1000;

    if (!opts.json)
        bench::printHeader("full-model forward latency",
                           "Fig. 15/17 latency axis (CPU execution)");

    std::vector<std::string> models = {"DeiT-Tiny"};
    if (!opts.smoke)
        models.push_back("DeiT-Small");

    linalg::engine::ThreadPool pool(mt_threads);
    const linalg::engine::KernelEngine ref_eng(
        {.tier = linalg::engine::KernelTier::Reference});
    const linalg::engine::KernelEngine opt1(
        {.tier = linalg::engine::KernelTier::Optimized});
    const linalg::engine::KernelEngine optN(
        {.tier = linalg::engine::KernelTier::Optimized}, &pool);

    double guard = 0.0;
    for (const std::string &name : models) {
        const auto m = model::modelByName(name);
        const auto plan = core::buildModelPlan(
            m, core::makePipelineConfig(m.nominalSparsity, false));

        Rng rng(opts.seed);
        const ExecutorConfig ecfg{.numClasses = num_classes};
        const ModelWeights w =
            ModelWeights::random(m, 0, num_classes, rng);
        const auto input = linalg::Matrix::randomNormal(
            m.stages[0].tokens, m.stages[0].embedDim, rng);

        ModelExecutor ref_exec(&plan, ModelWeights(w), ecfg,
                               &ref_eng);
        ModelExecutor opt_exec(&plan, ModelWeights(w), ecfg, &opt1);
        ModelExecutor mt_exec(&plan, ModelWeights(w), ecfg, &optN);

        const double ref_ms =
            bestMs(reps, [&] { guard += sink(ref_exec.forward(input)); });
        const double opt_ms =
            bestMs(reps, [&] { guard += sink(opt_exec.forward(input)); });
        const double mt_ms =
            bestMs(reps, [&] { guard += sink(mt_exec.forward(input)); });

        ExecTrace trace;
        guard += sink(opt_exec.forward(input, &trace));
        const double gmacs =
            static_cast<double>(trace.totalMacs) / 1e9;

        const auto n = static_cast<uint64_t>(m.stages[0].tokens);
        const auto d = static_cast<uint64_t>(m.stages[0].embedDim);
        bench::JsonRow()
            .set("bench", "model_exec")
            .set("kernel", "forward")
            .set("model", name)
            .set("n", n)
            .set("d", d)
            .set("sparsity", m.nominalSparsity)
            .set("layers", static_cast<uint64_t>(m.totalLayers()))
            .set("threads", 1)
            .set("ref_ms", ref_ms)
            .set("opt_ms", opt_ms)
            .set("speedup", ref_ms / opt_ms)
            .set("gmacs", gmacs)
            .set("opt_gmacps", gmacs / (opt_ms * 1e-3))
            .print();
        // --threads 1 would duplicate the single-thread row's
        // perf-gate identity keys and shadow the gated measurement.
        if (mt_threads != 1)
            bench::JsonRow()
                .set("bench", "model_exec")
                .set("kernel", "forward")
                .set("model", name)
                .set("n", n)
                .set("d", d)
                .set("sparsity", m.nominalSparsity)
                .set("layers",
                     static_cast<uint64_t>(m.totalLayers()))
                .set("threads", static_cast<uint64_t>(mt_threads))
                .set("ref_ms", ref_ms)
                .set("opt_ms", mt_ms)
                .set("speedup", ref_ms / mt_ms)
                .set("scaling_vs_1t", opt_ms / mt_ms)
                .set("gmacs", gmacs)
                .set("opt_gmacps", gmacs / (mt_ms * 1e-3))
                .print();

        // Batch amortization row: per-sample latency of one stacked
        // batch-4 forward, against the single forward on the same
        // executor (amortization > 1: batching pays).
        const size_t batch = 4;
        std::vector<linalg::Matrix> inputs = {input};
        while (inputs.size() < batch)
            inputs.push_back(linalg::Matrix::randomNormal(
                m.stages[0].tokens, m.stages[0].embedDim, rng));
        const double batch_ms = bestMs(reps, [&] {
            guard += sink(mt_exec.forwardBatch(inputs).front());
        });
        const double per_sample_ms =
            batch_ms / static_cast<double>(batch);
        const std::vector<linalg::Matrix> batched =
            mt_exec.forwardBatch(inputs);
        for (size_t b = 0; b < batch; ++b) {
            const linalg::Matrix single = mt_exec.forward(inputs[b]);
            if (single.size() != batched[b].size() ||
                std::memcmp(single.data(), batched[b].data(),
                            single.size() * sizeof(float)) != 0)
                fatal("bench_model_exec: forwardBatch sample ", b,
                      " differs bitwise from forward()");
        }
        bench::JsonRow()
            .set("bench", "model_exec")
            .set("kernel", "forward_batch")
            .set("model", name)
            .set("n", n)
            .set("d", d)
            .set("sparsity", m.nominalSparsity)
            .set("batch", static_cast<uint64_t>(batch))
            .set("threads", static_cast<uint64_t>(mt_threads))
            .set("batch_ms", batch_ms)
            .set("per_sample_ms", per_sample_ms)
            .set("amortization", mt_ms / per_sample_ms)
            .print();

        // The executor must have stayed inside its arena.
        if (opt_exec.arena().growths() != 0 ||
            mt_exec.arena().growths() != 0)
            fatal("bench_model_exec: arena grew after reservation");
    }

    if (!opts.json)
        std::printf("# guard %.3g (ignore; defeats dead-code elim)\n",
                    guard);

    const auto st = opt1.stats();
    if (st.gemmOptimized == 0 || st.spmmOptimized == 0)
        fatal("bench_model_exec: optimized path never dispatched");
    return 0;
}
