/**
 * @file
 * Whole-model execution walkthrough: build the ViTCoD plan for
 * DeiT-Tiny, draw a random weight set, run a full forward pass
 * through the ModelExecutor on the shared kernel engine, and print
 * the per-layer latency/dispatch breakdown the ExecTrace records —
 * the end-to-end view the serving runtime's "ModelExec" backend
 * serves under traffic.
 *
 *   ./build/examples/run_model [model-name] [sparsity]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "common/table.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"

using namespace vitcod;
using core::model_exec::ExecTrace;
using core::model_exec::ExecutorConfig;
using core::model_exec::LayerTrace;
using core::model_exec::ModelExecutor;
using core::model_exec::ModelWeights;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "DeiT-Tiny";
    const double sparsity = argc > 2 ? std::atof(argv[2]) : 0.9;

    const auto m = model::modelByName(name);
    std::printf("building ViTCoD plan for %s at %.0f%% sparsity...\n",
                m.name.c_str(), sparsity * 100.0);
    const auto plan = core::buildModelPlan(
        m, core::makePipelineConfig(sparsity, /*use_ae=*/true));

    Rng rng(7);
    const size_t num_classes = 1000;
    ModelExecutor exec(
        &plan,
        ModelWeights::random(m, 0, num_classes, rng),
        ExecutorConfig{.numClasses = num_classes});
    std::printf("weights: %zu parameters, arena: %.1f MB\n",
                exec.weights().parameterCount(),
                static_cast<double>(exec.arena().footprintBytes()) /
                    1e6);

    const auto input = linalg::Matrix::randomNormal(
        m.stages[0].tokens, exec.config().inDim, rng);

    // Warm forward (mask structures built), then the traced one.
    (void)exec.forward(input);
    ExecTrace trace;
    const auto logits = exec.forward(input, &trace);

    Table t({"layer", "tokens", "heads", "mask nnz", "qkv ms",
             "attn ms", "proj ms", "mlp ms", "total ms"});
    for (const LayerTrace &lt : trace.layers) {
        size_t nnz = 0;
        for (const auto &ht : lt.headTraces)
            nnz += ht.maskNnz;
        t.row()
            .cell(static_cast<uint64_t>(lt.layer))
            .cell(static_cast<uint64_t>(lt.tokens))
            .cell(static_cast<uint64_t>(lt.heads))
            .cell(static_cast<uint64_t>(nnz))
            .cell(lt.qkvSeconds * 1e3, 3)
            .cell(lt.attnSeconds * 1e3, 3)
            .cell(lt.projSeconds * 1e3, 3)
            .cell(lt.mlpSeconds * 1e3, 3)
            .cell(lt.seconds() * 1e3, 3);
    }
    t.print(std::cout);

    std::printf("\npatch embed %.3f ms, classifier %.3f ms, "
                "total %.3f ms (%.2f GMACs, %.2f GMAC/s)\n",
                trace.patchEmbedSeconds * 1e3,
                trace.classifierSeconds * 1e3,
                trace.totalSeconds * 1e3,
                static_cast<double>(trace.totalMacs) / 1e9,
                static_cast<double>(trace.totalMacs) / 1e9 /
                    trace.totalSeconds);
    std::printf("dispatch: %llu opt GEMMs, %llu CSR + %llu CSC "
                "SDDMMs\n",
                static_cast<unsigned long long>(
                    trace.dispatch.gemmOptimized),
                static_cast<unsigned long long>(
                    trace.dispatch.sddmmCsr),
                static_cast<unsigned long long>(
                    trace.dispatch.sddmmCsc));

    // Top-1 of the (random-weight) classifier, to show real logits.
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(0, c) > logits(0, best))
            best = c;
    std::printf("argmax logit: class %zu (%.4f)\n", best,
                logits(0, best));
    return 0;
}
