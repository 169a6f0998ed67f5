/**
 * @file
 * The three-way invariant the Schedule IR exists to guarantee: for
 * a given plan, the MACs the runtime *executes* (ExecTrace), the
 * MACs the analytic simulator *prices* (LayerAttentionStats) and
 * the MACs the compiled *instruction stream* carries must be one
 * and the same number, per layer and in total — because all three
 * consumers read them from the same ModelSchedule. Runs over the
 * golden-fixture model (whose layer-0/head-0 mask is pinned in
 * tests/data/model_exec_mask_l0h0.pbm) and a sweep of shapes,
 * sparsities and AE settings.
 */

#include <gtest/gtest.h>

#include "accel/compiler.h"
#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "sparse/bitmask.h"

namespace vitcod::core::schedule {
namespace {

using model_exec::ExecTrace;
using model_exec::ModelExecutor;
using model_exec::ModelWeights;

struct Case
{
    const char *name;
    size_t layers, heads, tokens, headDim;
    double sparsity;
    bool ae;
};

class ThreeWayMacs : public ::testing::TestWithParam<Case>
{};

/**
 * Per-layer attention MACs of an instruction stream, in both
 * currencies: `priced` is the engine workload (dense ops stream the
 * whole denser region), `executed` the mask-nonzero subset a
 * value-level run computes.
 */
struct ProgramMacs
{
    std::vector<MacOps> priced;
    std::vector<MacOps> executed;
};

ProgramMacs
programAttentionMacs(const accel::Program &prog, size_t layers)
{
    ProgramMacs macs{std::vector<MacOps>(layers, 0),
                     std::vector<MacOps>(layers, 0)};
    for (const accel::Instruction &ins : prog.code) {
        if (ins.layer >= layers)
            continue;
        switch (ins.op) {
          case accel::Opcode::SddmmDense:
          case accel::Opcode::SpmmDense:
            macs.priced[ins.layer] += ins.arg0;
            macs.executed[ins.layer] += ins.arg1;
            break;
          case accel::Opcode::SddmmSparse:
          case accel::Opcode::SpmmSparse:
            macs.priced[ins.layer] += ins.arg1;
            macs.executed[ins.layer] += ins.arg1;
            break;
          default:
            break;
        }
    }
    return macs;
}

TEST_P(ThreeWayMacs, ExecutedEqualsSimulatedEqualsCompiled)
{
    const Case c = GetParam();
    model::VitModelConfig m;
    m.name = c.name;
    m.stages = {{c.layers, c.tokens, c.heads, c.headDim,
                 c.heads * c.headDim, 2}};
    const auto plan = core::buildModelPlan(
        m, core::makePipelineConfig(c.sparsity, c.ae));

    // (1) Executed: a real forward pass through the ModelExecutor.
    Rng rng(2026);
    ModelExecutor exec(&plan, ModelWeights::random(m, 0, 8, rng),
                       model_exec::ExecutorConfig{.numClasses = 8});
    ExecTrace trace;
    (void)exec.forward(
        linalg::Matrix::randomNormal(c.tokens,
                                     m.stages[0].embedDim, rng),
        &trace);

    // (2) Simulated: the analytic accelerator pricing each layer.
    const accel::ViTCoDAccelerator sim;

    // (3) Compiled: the instruction stream's MAC operands.
    const accel::Program prog =
        accel::Compiler().compile(plan, /*e2e=*/false);
    const auto prog_macs =
        programAttentionMacs(prog, m.totalLayers());

    MacOps executed_total = 0;
    ASSERT_EQ(trace.layers.size(), m.totalLayers());
    for (size_t l = 0; l < m.totalLayers(); ++l) {
        // Executed attention MACs from the trace's own per-head
        // record: SDDMM + SpMM at each head's mask nonzeros.
        MacOps executed = 0;
        ASSERT_EQ(trace.layers[l].headTraces.size(), c.heads);
        for (const auto &ht : trace.layers[l].headTraces)
            executed += static_cast<MacOps>(ht.maskNnz) *
                        c.headDim * 2;

        const auto st = sim.simulateAttentionLayer(plan, l);

        // Executed currency, three ways: the runtime's trace, the
        // simulator's value-level count, the instruction stream's
        // nonzero operands.
        EXPECT_EQ(executed, st.executedMacs) << "layer " << l;
        EXPECT_EQ(st.executedMacs, prog_macs.executed[l])
            << "layer " << l;

        // Priced currency, three ways: simulator, instruction
        // stream, schedule.
        EXPECT_EQ(st.attentionMacs, prog_macs.priced[l])
            << "layer " << l;
        EXPECT_EQ(st.attentionMacs,
                  exec.schedule().layers[l].attentionMacs())
            << "layer " << l;

        // The two currencies differ by exactly the denser region's
        // zero padding (dense storage computes every n x N_gt
        // entry; the runtime computes only mask nonzeros).
        MacOps padding = 0;
        for (const auto &hs : exec.schedule().layers[l].heads)
            padding += (static_cast<MacOps>(hs.tokens) *
                            hs.numGlobalTokens -
                        hs.denserNnz) *
                       hs.headDim * 2;
        EXPECT_EQ(st.attentionMacs - st.executedMacs, padding)
            << "layer " << l;

        executed_total += executed;
    }
    EXPECT_GT(executed_total, 0u);

    // The schedule is the common source all three read from.
    EXPECT_EQ(exec.schedule().execMacs(),
              executed_total + [&] {
                  MacOps other = 0;
                  for (const auto &ls : exec.schedule().layers)
                      other += ls.execMacs.qkv + ls.execMacs.outProj +
                               ls.execMacs.mlp;
                  return other;
              }());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ThreeWayMacs,
    ::testing::Values(
        Case{"golden-tiny", 2, 3, 32, 8, 0.9, false},
        Case{"three-way-a", 2, 3, 48, 8, 0.5, false},
        Case{"three-way-b", 4, 6, 64, 8, 0.8, true},
        Case{"three-way-c", 2, 3, 40, 16, 0.98, true}),
    [](const auto &info) {
        return std::string(info.param.name).substr(
                   std::string(info.param.name).find_last_of('-') +
                   1) +
               "_s" +
               std::to_string(
                   static_cast<int>(info.param.sparsity * 100)) +
               (info.param.ae ? "_ae" : "_noae");
    });

TEST(ThreeWayMacs, GoldenMaskFixtureAgrees)
{
    // The golden mask (layer 0, head 0 of the golden-tiny plan, which
    // ModelExecGolden pins to tests/data/model_exec_mask_l0h0.pbm)
    // flows through all three consumers with one nnz count.
    model::VitModelConfig m;
    m.name = "golden-tiny";
    m.stages = {{2, 32, 3, 8, 24, 2}};
    const auto plan =
        core::buildModelPlan(m, core::makePipelineConfig(0.9, false));
    const sparse::BitMask &golden_mask = plan.planOf(0, 0).mask;

    const ModelSchedule sched =
        ScheduleBuilder().build(plan, /*e2e=*/false);
    EXPECT_EQ(sched.layers[0].heads[0].maskNnz(),
              golden_mask.nnz());
    EXPECT_EQ(sched.layers[0].heads[0].layout.colIdx.size(),
              golden_mask.nnz());
}

} // namespace
} // namespace vitcod::core::schedule
