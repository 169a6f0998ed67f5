/**
 * @file
 * Golden-trace regression fixtures: a pinned tiny model is built
 * and executed under a pinned engine configuration, and the
 * resulting (layer 0, head 0) mask (as ASCII PBM) plus the whole
 * ExecTrace document are compared byte for byte with the files in
 * tests/data/. Mask bits, shapes, per-head nnz / global-token
 * counts, MACs and engine dispatch counters must match exactly;
 * ExecTrace::write leaves the wall times out.
 *
 * Regenerate after an intentional change with
 * `core_test_model_exec_golden --update-goldens` (support/golden.h).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "linalg/engine/thread_pool.h"
#include "sparse/mask_io.h"
#include "support/golden.h"

namespace vitcod::core::model_exec {
namespace {

constexpr const char *kMaskGolden = "model_exec_mask_l0h0.pbm";
constexpr const char *kTraceGolden = "model_exec_trace.golden";

/** The pinned fixture: model, plan, engine config, input. */
struct Fixture
{
    model::VitModelConfig model;
    core::ModelPlan plan;
    linalg::engine::ThreadPool pool{2};
    linalg::engine::KernelEngine engine;
    ExecTrace trace;

    Fixture()
        : model(makeModel()),
          plan(buildModelPlan(model, makePipelineConfig(0.9, false))),
          // ISA pinned to Scalar: the golden trace embeds per-ISA
          // dispatch counters, and the fixture must produce the
          // same ones on every host the suite runs on.
          engine({.tier = linalg::engine::KernelTier::Optimized,
                  .isa = linalg::engine::IsaLevel::Scalar,
                  .minParallelMacs = 1},
                 &pool)
    {
        Rng rng(2024);
        ModelWeights w = ModelWeights::random(model, 0, 8, rng);
        ModelExecutor exec(&plan, std::move(w),
                           ExecutorConfig{.numClasses = 8}, &engine);
        std::vector<linalg::Matrix> inputs;
        for (size_t b = 0; b < 2; ++b)
            inputs.push_back(linalg::Matrix::randomNormal(
                32, model.stages[0].embedDim, rng));
        (void)exec.forwardBatch(inputs, &trace);
    }

    static model::VitModelConfig
    makeModel()
    {
        model::VitModelConfig m;
        m.name = "golden-tiny";
        m.stages = {{2, 32, 3, 8, 24, 2}};
        return m;
    }
};

TEST(ModelExecGolden, MaskMatchesCheckedInPbm)
{
    Fixture fx;
    std::ostringstream os;
    sparse::writePbm(os, fx.plan.planOf(0, 0).mask,
                     sparse::PbmFormat::Ascii);
    test::expectGolden(os.str(), kMaskGolden);
}

TEST(ModelExecGolden, TraceMatchesCheckedInGolden)
{
    Fixture fx;
    std::ostringstream os;
    fx.trace.write(os);
    test::expectGolden(os.str(), kTraceGolden);

    // Timings are machine-dependent, so the document leaves them
    // out, but the struct must still carry them.
    EXPECT_GT(fx.trace.totalSeconds, 0.0);
    for (const LayerTrace &lt : fx.trace.layers)
        EXPECT_GE(lt.seconds(), 0.0);
}

} // namespace
} // namespace vitcod::core::model_exec

int
main(int argc, char **argv)
{
    return vitcod::test::goldenMain(argc, argv);
}
