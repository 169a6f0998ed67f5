/**
 * @file
 * Tests of the DRAM channel model.
 */

#include <gtest/gtest.h>

#include "sim/dram.h"

namespace vitcod::sim {
namespace {

TEST(Dram, PaperBandwidthBytesPerCycle)
{
    // 76.8 GB/s at 500 MHz core = 153.6 B/cycle.
    DramModel d;
    EXPECT_NEAR(d.bytesPerCycle(), 153.6, 1e-9);
}

TEST(Dram, StreamCyclesMatchesBandwidth)
{
    DramModel d;
    // 1 MiB quantized to bursts / 153.6 B/cyc.
    const Cycles c = d.streamCycles(1 << 20);
    EXPECT_NEAR(static_cast<double>(c), (1 << 20) / 153.6, 2.0);
}

TEST(Dram, ZeroBytesZeroCycles)
{
    DramModel d;
    EXPECT_EQ(d.streamCycles(0), 0u);
    EXPECT_EQ(d.gatherCycles(0, 128), 0u);
}

TEST(Dram, BurstQuantization)
{
    // Use a 1 B/cycle channel so quantization is visible in cycles.
    DramConfig cfg;
    cfg.bandwidthGBps = 0.5;
    cfg.coreFreqGhz = 0.5;
    DramModel d(cfg);
    EXPECT_EQ(d.streamCycles(1), d.streamCycles(64));
    EXPECT_EQ(d.streamCycles(64), 64u);
    EXPECT_EQ(d.streamCycles(65), 128u);
}

TEST(Dram, GatherPaysPenaltyOverStream)
{
    DramModel d;
    // 1000 grains of 128 B scattered vs the same bytes streamed.
    const Cycles gather = d.gatherCycles(1000, 128);
    const Cycles stream = d.streamCycles(1000 * 128);
    EXPECT_GT(gather, stream);
}

TEST(Dram, GatherRoundsGrainToBurst)
{
    DramModel d;
    // 16 B grains are charged as full 64 B bursts: 4x the cycles of
    // an equal-byte stream (plus penalty).
    const Cycles g16 = d.gatherCycles(100, 16);
    const Cycles g64 = d.gatherCycles(100, 64);
    EXPECT_EQ(g16, g64);
}

TEST(Dram, CyclesScaleWithBandwidth)
{
    DramConfig fast;
    fast.bandwidthGBps = 153.6; // double the default
    DramModel d_fast(fast);
    DramModel d_base;
    const Bytes n = 10 << 20;
    EXPECT_NEAR(static_cast<double>(d_base.streamCycles(n)),
                2.0 * static_cast<double>(d_fast.streamCycles(n)),
                4.0);
}

} // namespace
} // namespace vitcod::sim
