/**
 * @file
 * Explorer tests: exhaustive exactness (every valid grid point is
 * on the frontier or dominated by it), bitwise determinism of the
 * frontier across Explorer instances, thread counts and repeated
 * searches on one instance, the paper's co-design payoff
 * (a config strictly dominating the default accelerator on latency
 * at equal-or-lower area proxy for DeiT-Tiny @ 90% sparsity), and a
 * golden frontier fixture under tests/data/ (support/golden.h;
 * regenerate with `dse_test_explorer --update-goldens`).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dse/explorer.h"
#include "support/golden.h"

namespace vitcod::dse {
namespace {

constexpr const char *kFrontierGolden = "dse_frontier.golden.json";

/** The acceptance workload: DeiT-Tiny at 90% sparsity, AE on. */
std::vector<WorkloadSpec>
tinyBundle()
{
    return {{"DeiT-Tiny", 0.9, true, false, 1.0}};
}

ExplorerConfig
testConfig()
{
    ExplorerConfig ec;
    ec.threads = 4; // pinned per TESTING.md determinism rules
    return ec;
}

TEST(Explorer, ExhaustiveFrontierIsExact)
{
    Explorer ex(tinyBundle(), HwConfigSpace::smokeSpace(),
                testConfig());
    const DseResult r = ex.exhaustive();
    const HwConfigSpace &space = ex.space();

    size_t n_valid = 0;
    for (size_t i = 0; i < space.size(); ++i)
        if (space.valid(i))
            ++n_valid;
    EXPECT_EQ(r.evaluated, n_valid);
    EXPECT_EQ(r.frontier.evaluated, n_valid);
    ASSERT_FALSE(r.frontier.points().empty());

    // Every valid grid point is either on the frontier (equal
    // objectives) or dominated by a frontier point; frontier points
    // carry exactly the objectives a fresh evaluation reproduces.
    for (size_t i = 0; i < space.size(); ++i) {
        if (!space.valid(i))
            continue;
        const DsePoint p = ex.evaluateIndex(i);
        bool on_frontier = false;
        for (const DsePoint &q : r.frontier.points())
            if (q.obj == p.obj)
                on_frontier = true;
        EXPECT_TRUE(on_frontier || !r.frontier.nonDominated(p.obj))
            << "point " << i
            << " neither on the frontier nor dominated";
    }
    for (const DsePoint &q : r.frontier.points())
        EXPECT_EQ(ex.evaluateIndex(q.index).obj, q.obj);
}

TEST(Explorer, FrontierIndependentOfThreadCountAndInstance)
{
    // explorer.h promises results never depend on thread scheduling:
    // a serial run, a 4-worker pool and the shared pool agree
    // bitwise, and a repeat on one instance (schedules now served
    // from the memo) reproduces the cold search.
    ExplorerConfig serial = testConfig();
    serial.threads = 1;
    ExplorerConfig shared = testConfig();
    shared.threads = 0;
    // The full default grid, so the pools really split the work.
    const HwConfigSpace space = HwConfigSpace::defaultSpace();
    Explorer one(tinyBundle(), space, serial);
    Explorer four(tinyBundle(), space, testConfig());
    Explorer pool(tinyBundle(), space, shared);

    EXPECT_EQ(one.baseline(), four.baseline());
    EXPECT_EQ(one.baseline(), pool.baseline());
    const ParetoFrontier cold = four.exhaustive().frontier;
    EXPECT_EQ(one.exhaustive().frontier, cold);
    EXPECT_EQ(pool.exhaustive().frontier, cold);
    EXPECT_EQ(four.exhaustive().frontier, cold);
}

TEST(Explorer, FindsConfigDominatingTheDefaultAccelerator)
{
    // The headline acceptance criterion: for DeiT-Tiny @ 90%
    // sparsity the explorer finds a configuration *strictly* faster
    // than the default accel::ViTCoDConfig at equal-or-lower area
    // proxy — the space trades the oversized S buffer for MAC lines
    // and bandwidth the workload can actually use.
    Explorer ex(tinyBundle(), HwConfigSpace::defaultSpace(),
                testConfig());
    const Objectives base = ex.baseline();
    const DseResult r = ex.exhaustive();

    bool dominating = false;
    for (const DsePoint &p : r.frontier.points())
        if (p.obj.latencySeconds < base.latencySeconds &&
            p.obj.areaMm2 <= base.areaMm2)
            dominating = true;
    EXPECT_TRUE(dominating)
        << "no frontier point beats the default config";
}

TEST(Explorer, WeightedBundleAggregatesObjectives)
{
    std::vector<WorkloadSpec> both = {
        {"DeiT-Tiny", 0.9, true, false, 1.0},
        {"DeiT-Tiny", 0.9, true, false, 2.0}};
    Explorer one(tinyBundle(), HwConfigSpace::smokeSpace(),
                 testConfig());
    Explorer three(both, HwConfigSpace::smokeSpace(), testConfig());
    // Same task at weights 1 + 2 == 3x the single-task objectives;
    // area does not depend on the bundle.
    const Objectives o1 = one.baseline();
    const Objectives o3 = three.baseline();
    EXPECT_DOUBLE_EQ(o3.latencySeconds, 3.0 * o1.latencySeconds);
    EXPECT_DOUBLE_EQ(o3.energyJoules, 3.0 * o1.energyJoules);
    EXPECT_DOUBLE_EQ(o3.areaMm2, o1.areaMm2);
}

TEST(Explorer, PipelinedModeSweepsFifoDepthAxis)
{
    // Under SimMode::Pipelined the FIFO-depth axis becomes a real
    // latency knob: on a starved DRAM a shallow FIFO costs cycles a
    // deep one saves, so the exhaustive frontier must carry at least
    // one point from the depth axis, and every pipelined latency
    // must bound its analytic twin from above. The depth axis rides
    // on memoized schedules (pricing-only), so evaluation count
    // equals the valid grid size without schedule rebuilds.
    // Depth 1 clamps to single-item capacity (no cross-item
    // prefetch); 1024 chunks of 1 KiB hold two items, restoring the
    // analytic double-buffer overlap. End-to-end scope: the dense
    // block's back-to-back loaded phases (proj -> outproj -> mlp)
    // are where prefetch depth can matter at all — in the attention
    // group every cross-item edge is already structurally gated.
    const std::vector<WorkloadSpec> bundle = {
        {"DeiT-Tiny", 0.9, true, true, 1.0}};
    HwConfigSpace space = HwConfigSpace::smokeSpace();
    space.bandwidthGBps = {12.8};
    space.pipeFifoDepth = {1, 1024};
    space.pipeStageLatency = {0, 16};
    space.base.pipeline.fifoChunkBytes = 1024;

    ExplorerConfig pc = testConfig();
    pc.simMode = sim::SimMode::Pipelined;
    Explorer pipelined(bundle, space, pc);
    Explorer analytic(bundle, space, testConfig());

    const DseResult rp = pipelined.exhaustive();
    const DseResult ra = analytic.exhaustive();
    ASSERT_FALSE(rp.frontier.points().empty());

    bool depth_axis_on_frontier = false;
    for (const DsePoint &p : rp.frontier.points())
        if (p.hw.pipeFifoDepth != space.pipeFifoDepth.front() ||
            p.hw.pipeStageLatency != 0)
            depth_axis_on_frontier = true;
    EXPECT_TRUE(depth_axis_on_frontier)
        << "pipelined frontier ignored the FIFO-depth axis";

    for (size_t i = 0; i < space.size(); ++i) {
        if (!space.valid(i))
            continue;
        EXPECT_GE(pipelined.evaluateIndex(i).obj.latencySeconds,
                  analytic.evaluateIndex(i).obj.latencySeconds)
            << "point " << i << " priced below the analytic bound";
    }

    // The depth knob is a real latency lever under backpressure:
    // same point, shallow vs deep FIFO, strictly slower shallow.
    std::vector<size_t> shallow(HwConfigSpace::kAxes, 0);
    std::vector<size_t> deep = shallow;
    deep[7] = 1;
    EXPECT_LT(pipelined.evaluateIndex(space.encode(deep))
                  .obj.latencySeconds,
              pipelined.evaluateIndex(space.encode(shallow))
                  .obj.latencySeconds);

    // Determinism holds in pipelined mode too.
    Explorer again(bundle, space, pc);
    EXPECT_EQ(again.exhaustive().frontier, rp.frontier);
}

TEST(ExplorerGolden, FrontierMatchesCheckedInFixture)
{
    // Pinned: DeiT-Tiny @ 90% on the smoke grid, exhaustive. Any
    // diff means the pricing model (Schedule IR, simulator, area
    // proxy) changed and must be intentional.
    Explorer ex(tinyBundle(), HwConfigSpace::smokeSpace(),
                testConfig());
    const DseResult r = ex.exhaustive();
    std::stringstream ss;
    r.frontier.writeJson(ss);
    test::expectGolden(ss.str(), kFrontierGolden);

    // The reader has a production caller (serve::tunedHwConfig), so
    // the written document must also parse back exactly.
    EXPECT_EQ(ParetoFrontier::readJson(ss), r.frontier);
}

} // namespace
} // namespace vitcod::dse

int
main(int argc, char **argv)
{
    return vitcod::test::goldenMain(argc, argv);
}
