/**
 * @file
 * The ModelExec serving backend runs whole-model forward passes:
 * nonzero wall time, full-model MAC accounting (projections + MLP +
 * classifier, not just attention), a resident per-plan executor
 * whose arena never grows in steady state, a fresh measurement for
 * every batch, and end-to-end traffic through a WorkerPool-backed
 * server.
 */

#include <gtest/gtest.h>

#include "serve/backend.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

namespace vitcod::serve {
namespace {

PlanKey
tinyKey()
{
    PlanKey k;
    k.model = "DeiT-Tiny";
    k.sparsity = 0.9;
    return k;
}

TEST(ModelExecServeBackend, RunsFullForwardAndAccountsModelMacs)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey());

    auto backend = makeServeBackend("ModelExec", accel::ViTCoDConfig{});
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), "ModelExec");

    const auto r = backend->runBatch(*cp, 1);
    EXPECT_GT(r.stats.seconds, 0.0);
    EXPECT_TRUE(r.switched); // first batch loads weights

    // Whole-model MACs dwarf the attention-only SDDMM + SpMM count:
    // QKV/output projections and the MLP dominate DeiT.
    MacOps attn_only = 0;
    for (const auto &hp : cp->plan.heads) {
        const auto dk = cp->plan.model.stages.front().headDim;
        attn_only +=
            static_cast<MacOps>(hp.plan.mask.nnz()) * dk * 2;
    }
    EXPECT_GT(r.stats.macs, attn_only * 10);
    EXPECT_EQ(r.stats.model, "DeiT-Tiny");
}

TEST(ModelExecServeBackend, KeepsResidentExecutorAndTraces)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey());
    ModelExecServeBackend backend;

    (void)backend.runBatch(*cp, 1);
    const auto &trace = backend.lastTrace();
    EXPECT_EQ(trace.model, "DeiT-Tiny");
    ASSERT_EQ(trace.layers.size(), cp->plan.model.totalLayers());
    for (const auto &lt : trace.layers)
        EXPECT_EQ(lt.heads, 3u);

    // Second batch reuses the resident executor, which runs from
    // the plan's compiled Schedule IR: the masks were scanned exactly
    // once, when the PlanCache built the schedule.
    (void)backend.runBatch(*cp, 2);
    EXPECT_GT(backend.lastTrace().dispatch.sddmmCsr +
                  backend.lastTrace().dispatch.sddmmCsc,
              0u);
}

TEST(ModelExecServeBackend, EveryBatchReallyExecutes)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey());
    auto backend = makeServeBackend("ModelExec", accel::ViTCoDConfig{});

    const auto one = backend->runBatch(*cp, 1);
    const auto four = backend->runBatch(*cp, 4);
    // Second batch: no plan switch, and the forward ran again — the
    // batch time is 4x a *fresh* measurement, not a replay of the
    // first batch's wall time.
    EXPECT_FALSE(four.switched);
    EXPECT_GT(four.perRequestSeconds, 0.0);
    EXPECT_DOUBLE_EQ(four.stats.seconds, four.perRequestSeconds * 4);
    EXPECT_GT(one.perRequestSeconds, 0.0);
}

TEST(ModelExecServeBackend, ServesTrafficInMixedPool)
{
    ServerConfig cfg;
    cfg.backends = {"ModelExec", "ViTCoD"};
    InferenceServer server(cfg);
    server.warmup({tinyKey()});
    for (int i = 0; i < 8; ++i)
        server.submit(tinyKey());
    server.drain();
    const auto snap = server.snapshot();
    EXPECT_EQ(snap.completed, 8u);
    server.shutdown();
}

} // namespace
} // namespace vitcod::serve
