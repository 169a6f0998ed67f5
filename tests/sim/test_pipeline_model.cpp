/**
 * @file
 * Differential validation of the pipelined model against the
 * analytic simulator (docs/SIMULATOR.md):
 *
 *  - Stall-free configs (deep FIFOs, zero latency adders) price
 *    cycle-exactly equal to the analytic recurrence, across
 *    DeiT-Tiny/Small plans and sparsities 0.5-0.98, attention-only
 *    and end-to-end, at any bandwidth.
 *  - Constrained configs conserve cycles per stage
 *    (busy + stall + idle == total) and stall monotonically: deeper
 *    FIFOs or more bandwidth never increase cycles, and the
 *    analytic count is a lower bound on every config.
 *  - A seeded ~200-sample property sweep over random (FIFO depth,
 *    chunk size, stage latency, bandwidth) configs pins determinism
 *    and the analytic lower bound.
 *  - Seeded synthetic groups (zero-length phases, gather-only items)
 *    price exactly like doubleBufferedCycles() on deep FIFOs, and
 *    keep their accounting invariants on shallow ones.
 *  - A golden per-stage stall breakdown of the pinned DeiT-Tiny@90%
 *    schedule under a constrained config, with the established
 *    --update-goldens flow:
 *
 *        sim_test_pipeline_model --update-goldens
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/vitcod_accel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/schedule/builder.h"

namespace vitcod::accel {
namespace {

bool g_update_goldens = false;

std::string
dataDir()
{
#ifdef VITCOD_TEST_DATA_DIR
    return std::string(VITCOD_TEST_DATA_DIR) + "/";
#else
    return "tests/data/";
#endif
}

constexpr const char *kStatsGolden = "pipeline_stats.golden";

core::ModelPlan
planFor(const model::VitModelConfig &m, double sparsity, bool ae)
{
    return core::buildModelPlan(m,
                                core::makePipelineConfig(sparsity, ae));
}

core::schedule::ModelSchedule
scheduleFor(const ViTCoDConfig &cfg, const core::ModelPlan &plan,
            bool end_to_end)
{
    const core::schedule::ScheduleBuilder builder(
        {.hw = scheduleParams(cfg), .buildLayouts = false});
    return builder.build(plan, end_to_end);
}

/** FIFOs deep enough that only the structural two-bank gates bind:
 *  the machine must then reduce exactly to the analytic recurrence. */
sim::PipelineConfig
deepConfig()
{
    sim::PipelineConfig pc;
    pc.fetchFifoDepth = size_t{1} << 20;
    pc.writebackFifoDepth = size_t{1} << 20;
    return pc;
}

/** A deliberately tight machine: shallow FIFOs, fine chunks, real
 *  stage-fill latencies. */
sim::PipelineConfig
tightConfig()
{
    sim::PipelineConfig pc;
    pc.fetchFifoDepth = 2;
    pc.writebackFifoDepth = 1;
    pc.fifoChunkBytes = 1024;
    pc.fetchLatency = 8;
    pc.denserLatency = 4;
    pc.sparserLatency = 4;
    pc.writebackLatency = 8;
    return pc;
}

void
expectConserved(const sim::PipelineStats &ps)
{
    EXPECT_EQ(ps.fetch.total(), ps.totalCycles);
    EXPECT_EQ(ps.denser.total(), ps.totalCycles);
    EXPECT_EQ(ps.sparser.total(), ps.totalCycles);
    EXPECT_EQ(ps.writeback.total(), ps.totalCycles);
}

// ---------------------------------------------------------------------
// Satellite 1: differential equality and conservation.
// ---------------------------------------------------------------------

TEST(PipelineModel, StallFreeMatchesAnalyticExactly)
{
    const double sparsities[] = {0.5, 0.7, 0.9, 0.95, 0.98};
    for (const auto &m : {model::deitTiny(), model::deitSmall()}) {
        for (double s : sparsities) {
            ViTCoDConfig cfg;
            cfg.pipeline = deepConfig();
            const ViTCoDAccelerator acc(cfg);
            const auto plan = planFor(m, s, true);
            const auto sched = scheduleFor(cfg, plan, false);
            const RunStats a =
                acc.runSchedule(sched, sim::SimMode::Analytic);
            const RunStats p =
                acc.runSchedule(sched, sim::SimMode::Pipelined);
            EXPECT_EQ(a.cycles, p.cycles)
                << m.name << " @ " << s
                << ": pipelined diverged from analytic on a "
                   "stall-free config";
            // Deep FIFOs leave only the structural stalls the
            // analytic recurrence also pays (the two-bank gates on
            // fetch, the join imbalance on the lanes) — never a
            // blocked writeback port.
            EXPECT_EQ(p.pipeline.writeback.stall, 0u);
            expectConserved(p.pipeline);
        }
    }
}

TEST(PipelineModel, StallFreeMatchesAnalyticEndToEnd)
{
    ViTCoDConfig cfg;
    cfg.pipeline = deepConfig();
    const ViTCoDAccelerator acc(cfg);
    for (const auto &m : {model::deitTiny(), model::deitSmall()}) {
        const auto plan = planFor(m, 0.9, true);
        const auto sched = scheduleFor(cfg, plan, true);
        EXPECT_EQ(acc.runSchedule(sched, sim::SimMode::Analytic)
                      .cycles,
                  acc.runSchedule(sched, sim::SimMode::Pipelined)
                      .cycles)
            << m.name << " end-to-end";
    }
}

TEST(PipelineModel, StallFreeEqualityHoldsAtAnyBandwidth)
{
    // The reduction to the analytic recurrence is structural, not a
    // fluke of the default DRAM: equality must survive bandwidth
    // extremes in both directions.
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    for (double bw : {4.8, 12.8, 76.8, 614.4}) {
        ViTCoDConfig cfg;
        cfg.dram.bandwidthGBps = bw;
        cfg.pipeline = deepConfig();
        const ViTCoDAccelerator acc(cfg);
        const auto sched = scheduleFor(cfg, plan, false);
        EXPECT_EQ(acc.runSchedule(sched, sim::SimMode::Analytic)
                      .cycles,
                  acc.runSchedule(sched, sim::SimMode::Pipelined)
                      .cycles)
            << "bandwidth " << bw << " GB/s";
    }
}

TEST(PipelineModel, StallFreeEqualityWithMaskPrediction)
{
    // NLP mode adds the serial prediction pass as its own drained
    // group; the mode split must not change the sum.
    ViTCoDConfig cfg;
    cfg.dynamicMaskPrediction = true;
    cfg.pipeline = deepConfig();
    const ViTCoDAccelerator acc(cfg);
    const auto plan = planFor(model::bertBase(384), 0.9, true);
    const auto sched = scheduleFor(cfg, plan, false);
    const RunStats a = acc.runSchedule(sched, sim::SimMode::Analytic);
    const RunStats p = acc.runSchedule(sched, sim::SimMode::Pipelined);
    EXPECT_EQ(a.cycles, p.cycles);
    EXPECT_GT(a.preprocessSeconds, 0.0);
}

TEST(PipelineModel, ConstrainedConfigConservesPerStage)
{
    ViTCoDConfig cfg;
    cfg.dram.bandwidthGBps = 12.8; // starved
    cfg.pipeline = tightConfig();
    const ViTCoDAccelerator acc(cfg);
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    for (bool e2e : {false, true}) {
        const auto sched = scheduleFor(cfg, plan, e2e);
        const RunStats p =
            acc.runSchedule(sched, sim::SimMode::Pipelined);
        expectConserved(p.pipeline);
        EXPECT_GT(p.pipeline.items, 0u);
        EXPECT_GT(p.pipeline.events, 0u);
        EXPECT_GT(p.pipeline.fetchFifoHighWater, 0u);
    }
}

TEST(PipelineModel, BandwidthStarvedConfigReportsStalls)
{
    // Acceptance criterion: a bandwidth-starved machine must surface
    // nonzero stall cycles (the analytic model cannot see these).
    ViTCoDConfig cfg;
    cfg.dram.bandwidthGBps = 6.4;
    cfg.pipeline = tightConfig();
    const ViTCoDAccelerator acc(cfg);
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const auto sched = scheduleFor(cfg, plan, false);
    const RunStats a = acc.runSchedule(sched, sim::SimMode::Analytic);
    const RunStats p = acc.runSchedule(sched, sim::SimMode::Pipelined);
    EXPECT_GT(p.pipeline.stallCycles(), 0u);
    EXPECT_GT(p.pipeline.denser.stall, 0u);
    EXPECT_GT(p.cycles, a.cycles);
    // The analytic run must leave the pipeline report empty.
    EXPECT_EQ(a.pipeline, sim::PipelineStats{});
}

TEST(PipelineModel, MonotoneInFifoDepth)
{
    ViTCoDConfig base;
    base.dram.bandwidthGBps = 12.8;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const auto sched = scheduleFor(base, plan, false);
    Cycles prev = ~Cycles{0};
    for (size_t depth : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         size_t{64}, size_t{1} << 20}) {
        ViTCoDConfig cfg = base;
        cfg.pipeline.fetchFifoDepth = depth;
        cfg.pipeline.writebackFifoDepth = depth;
        cfg.pipeline.fifoChunkBytes = 1024;
        const ViTCoDAccelerator acc(cfg);
        const Cycles c =
            acc.runSchedule(sched, sim::SimMode::Pipelined).cycles;
        EXPECT_LE(c, prev)
            << "deepening FIFOs to " << depth
            << " chunks increased cycles";
        prev = c;
    }
    // The deepest point is stall-free and must meet the analytic
    // count exactly (not just bound it).
    const ViTCoDAccelerator acc(base);
    EXPECT_EQ(prev,
              acc.runSchedule(sched, sim::SimMode::Analytic).cycles);
}

TEST(PipelineModel, MonotoneInBandwidth)
{
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    Cycles prev = ~Cycles{0};
    for (double bw : {4.8, 9.6, 19.2, 38.4, 76.8, 153.6}) {
        ViTCoDConfig cfg;
        cfg.dram.bandwidthGBps = bw;
        cfg.pipeline = tightConfig();
        const ViTCoDAccelerator acc(cfg);
        const auto sched = scheduleFor(cfg, plan, false);
        const Cycles c =
            acc.runSchedule(sched, sim::SimMode::Pipelined).cycles;
        EXPECT_LE(c, prev) << "raising bandwidth to " << bw
                           << " GB/s increased cycles";
        prev = c;
    }
}

TEST(PipelineModel, LayerStatsCarryPipelineBreakdown)
{
    ViTCoDConfig cfg;
    cfg.pipeline = tightConfig();
    const ViTCoDAccelerator acc(cfg);
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const auto sched = scheduleFor(cfg, plan, false);
    ASSERT_FALSE(sched.layers.empty());
    const LayerAttentionStats st = acc.priceAttentionLayer(
        sched.layers.front(), sim::SimMode::Pipelined);
    EXPECT_EQ(st.pipe.items, 3u); // SDDMM, softmax, SpMM
    EXPECT_EQ(st.pipe.totalCycles, st.total);
    // Analytic pricing of the same layer leaves pipe empty.
    const LayerAttentionStats sa =
        acc.priceAttentionLayer(sched.layers.front());
    EXPECT_EQ(sa.pipe, sim::PipelineStats{});
}

// ---------------------------------------------------------------------
// Satellite 2: randomized-schedule property sweep.
// ---------------------------------------------------------------------

TEST(PipelineModel, RandomConfigPropertySweep)
{
    // ~200 random machines over one pinned schedule. Per sample:
    // bitwise determinism across re-runs, per-stage conservation,
    // and the analytic lower bound.
    Rng rng(0x91e5'11fe'5eedULL);
    const ViTCoDConfig ref;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const auto sched = scheduleFor(ref, plan, false);
    const double bws[] = {9.6, 19.2, 38.4, 76.8, 153.6};
    const Bytes chunks[] = {256, 1024, 4096, 16384};

    for (int sample = 0; sample < 200; ++sample) {
        ViTCoDConfig cfg;
        cfg.dram.bandwidthGBps = bws[rng.uniformInt(5)];
        cfg.pipeline.fetchFifoDepth = 1 + rng.uniformInt(64);
        cfg.pipeline.writebackFifoDepth = 1 + rng.uniformInt(64);
        cfg.pipeline.fifoChunkBytes = chunks[rng.uniformInt(4)];
        cfg.pipeline.fetchLatency = rng.uniformInt(33);
        cfg.pipeline.denserLatency = rng.uniformInt(33);
        cfg.pipeline.sparserLatency = rng.uniformInt(33);
        cfg.pipeline.writebackLatency = rng.uniformInt(33);
        const ViTCoDAccelerator acc(cfg);

        const RunStats a =
            acc.runSchedule(sched, sim::SimMode::Analytic);
        const RunStats p1 =
            acc.runSchedule(sched, sim::SimMode::Pipelined);
        const RunStats p2 =
            acc.runSchedule(sched, sim::SimMode::Pipelined);

        ASSERT_EQ(p1.pipeline, p2.pipeline)
            << "sample " << sample << ": nondeterministic replay";
        ASSERT_EQ(p1.cycles, p2.cycles);
        ASSERT_GE(p1.cycles, a.cycles)
            << "sample " << sample
            << ": pipelined beat the analytic lower bound";
        expectConserved(p1.pipeline);
    }
}

/** A seeded group of 1-40 items. Each item streams, gathers, does
 *  both or neither; every other phase is zero one time in four. */
std::vector<sim::PipeItem>
syntheticGroup(Rng &rng)
{
    const auto maybe = [&](uint64_t n) {
        return rng.uniformInt(4) == 0 ? 0 : rng.uniformInt(n);
    };
    std::vector<sim::PipeItem> items(1 + rng.uniformInt(40));
    for (sim::PipeItem &it : items) {
        const uint64_t kind = rng.uniformInt(4);
        if (kind & 1)
            it.loadBytes = 1 + rng.uniformInt(16384);
        if (kind & 2) {
            it.gatherCount = 1 + rng.uniformInt(64);
            it.gatherGrainBytes = 1 + rng.uniformInt(256);
        }
        it.denserCycles = maybe(200);
        it.sparserCycles = maybe(200);
        it.decodeCycles = maybe(100);
        it.syncCycles = maybe(20);
        it.storeBytes = maybe(8192);
    }
    return items;
}

TEST(PipelineModel, SyntheticGroupsStallFreeAndConserved)
{
    Rng rng(0x5e1f'9a7e'd00dULL);
    const Bytes chunks[] = {512, 1024, 4096};
    for (int sample = 0; sample < 2000; ++sample) {
        sim::DramConfig dram;
        dram.bandwidthGBps = rng.uniformInt(2) ? 76.8 : 12.8;
        const sim::DramModel dm(dram);
        const auto items = syntheticGroup(rng);
        std::vector<sim::TileCost> tiles;
        for (const sim::PipeItem &it : items)
            tiles.push_back(sim::analyticTile(it, dm));
        const Cycles analytic = sim::doubleBufferedCycles(tiles);

        // Deep FIFOs, zero stage latencies: exactly the closed form.
        const sim::PipelineStats deep =
            sim::PipelineModel(deepConfig(), dram).run(items);
        ASSERT_EQ(deep.totalCycles, analytic) << "sample " << sample;

        // Shallow FIFOs and stage latencies on the same group.
        sim::PipelineConfig pc;
        pc.fetchFifoDepth = 1 + rng.uniformInt(8);
        pc.writebackFifoDepth = 1 + rng.uniformInt(8);
        pc.fifoChunkBytes = chunks[rng.uniformInt(3)];
        pc.fetchLatency = rng.uniformInt(9);
        pc.denserLatency = rng.uniformInt(9);
        pc.sparserLatency = rng.uniformInt(9);
        pc.writebackLatency = rng.uniformInt(9);
        const sim::PipelineStats ps =
            sim::PipelineModel(pc, dram).run(items);

        uint64_t events = items.size();
        size_t cap_in = pc.fetchFifoDepth;
        size_t cap_out = pc.writebackFifoDepth;
        for (const sim::PipeItem &it : items) {
            events += (sim::itemLoadCycles(it, dm) > 0) +
                      (it.storeBytes > 0);
            cap_in = std::max<size_t>(
                cap_in, ceilDiv(it.loadBytes, pc.fifoChunkBytes));
            cap_out = std::max<size_t>(
                cap_out, ceilDiv(it.storeBytes, pc.fifoChunkBytes));
        }
        SCOPED_TRACE("sample " + std::to_string(sample));
        expectConserved(ps);
        EXPECT_EQ(ps.items, items.size());
        EXPECT_EQ(ps.events, events);
        EXPECT_LE(ps.fetchFifoHighWater, cap_in);
        EXPECT_LE(ps.writebackFifoHighWater, cap_out);
        EXPECT_EQ(ps.writeback.stall, 0u);
        EXPECT_GE(ps.totalCycles, analytic);
    }
}

TEST(PipelineModel, ShallowFifosHoldFetchAndRelease)
{
    // Three items, each 2 operand chunks (27 cycles to load), 10
    // denser cycles and 8 result chunks (107 cycles to store). With
    // 2 input and 8 output chunks only one item fits in each FIFO:
    // fetch i waits for item i-1's release (37, 144), and release
    // i waits for item i-1's writeback (144, 251). Priced by hand.
    sim::PipeItem it;
    it.loadBytes = 4_KiB;
    it.denserCycles = 10;
    it.storeBytes = 16_KiB;
    const std::vector<sim::PipeItem> items(3, it);

    sim::PipelineConfig pc;
    pc.fetchFifoDepth = 2;
    pc.writebackFifoDepth = 8;
    pc.fifoChunkBytes = 2_KiB;
    sim::PipelineStats want;
    want.totalCycles = 358;
    want.fetch = {.busy = 81, .stall = 10 + 80, .idle = 187};
    want.denser = {.busy = 30, .stall = 27 + 97 + 97, .idle = 107};
    want.sparser = {.busy = 0, .stall = 221, .idle = 137};
    want.writeback = {.busy = 321, .stall = 0, .idle = 37};
    want.fetchFifoHighWater = 2;
    want.writebackFifoHighWater = 8;
    want.items = 3;
    want.events = 9;
    EXPECT_EQ(sim::PipelineModel(pc).run(items).str(), want.str());

    // Deep FIFOs: the write port still bounds the group, but both
    // FIFOs now hold two items' chunks at once.
    pc.fetchFifoDepth = pc.writebackFifoDepth = 64;
    const sim::PipelineStats deep = sim::PipelineModel(pc).run(items);
    EXPECT_EQ(deep.totalCycles, 358u);
    EXPECT_EQ(deep.fetchFifoHighWater, 4u);
    EXPECT_EQ(deep.writebackFifoHighWater, 16u);
    EXPECT_EQ(deep.fetch.stall, 0u);
}

TEST(PipelineModel, GatherOnlyItemPaysItsGatherCycles)
{
    // An item that only gathers holds no FIFO chunks but still keeps
    // the read port busy for its gather cycles, as analytic pricing
    // charges them: 64 gathers of 128 B take 126 cycles on the
    // default DRAM, ahead of the 4 KiB stream of the second item.
    sim::PipeItem gather;
    gather.gatherCount = 64;
    gather.gatherGrainBytes = 128;
    gather.sparserCycles = 10;
    sim::PipeItem dense;
    dense.loadBytes = 4_KiB;
    dense.denserCycles = 50;
    dense.storeBytes = 1_KiB;
    const std::vector<sim::PipeItem> items = {gather, dense};

    const sim::DramModel dm{sim::DramConfig{}};
    const Cycles analytic = sim::doubleBufferedCycles(
        {sim::analyticTile(gather, dm), sim::analyticTile(dense, dm)});
    EXPECT_EQ(analytic, 210u);
    const sim::PipelineStats ps =
        sim::PipelineModel(deepConfig()).run(items);
    EXPECT_EQ(ps.totalCycles, analytic);
    EXPECT_EQ(ps.fetch.busy, 126u + 27u);
    EXPECT_EQ(ps.events, 5u);
}

// ---------------------------------------------------------------------
// Satellite 3: golden per-stage stall breakdown.
// ---------------------------------------------------------------------

TEST(PipelineModel, GoldenStallBreakdown)
{
    // Pinned DeiT-Tiny @ 90% under the tight machine on a 19.2 GB/s
    // DRAM. A diff means the pipelined model's timing or accounting
    // changed and must be intentional.
    ViTCoDConfig cfg;
    cfg.dram.bandwidthGBps = 19.2;
    cfg.pipeline = tightConfig();
    const ViTCoDAccelerator acc(cfg);
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const auto sched = scheduleFor(cfg, plan, false);
    const RunStats p = acc.runSchedule(sched, sim::SimMode::Pipelined);
    const std::string got = p.pipeline.str();
    EXPECT_GT(p.pipeline.stallCycles(), 0u)
        << "golden config must actually stall";

    const std::string path = dataDir() + kStatsGolden;
    if (g_update_goldens) {
        std::ofstream out(path);
        out << got;
        ASSERT_TRUE(out.good()) << "failed to write " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), got)
        << "stall breakdown diverged from " << path
        << " (regenerate with --update-goldens if intentional)";
}

} // namespace
} // namespace vitcod::accel

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            vitcod::accel::g_update_goldens = true;
    return RUN_ALL_TESTS();
}
