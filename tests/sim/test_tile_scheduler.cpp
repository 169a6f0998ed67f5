/**
 * @file
 * Tests of the double-buffered tile schedule's closed form. Its
 * agreement with the pipelined machine on stall-free synthetic groups
 * is checked in test_pipeline_model.cpp.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/tile_scheduler.h"

namespace vitcod::sim {
namespace {

/** Serial (no-overlap) total: the ablation of double buffering. */
Cycles
serialSum(const std::vector<TileCost> &tiles)
{
    Cycles total = 0;
    for (const auto &t : tiles)
        total += t.load + t.compute + t.store;
    return total;
}

TEST(TileScheduler, EmptyIsZero)
{
    EXPECT_EQ(doubleBufferedCycles({}), 0u);
}

TEST(TileScheduler, SingleTileIsSerial)
{
    const std::vector<TileCost> t = {{10, 20, 5}};
    EXPECT_EQ(doubleBufferedCycles(t), 35u);
    EXPECT_EQ(serialSum(t), 35u);
}

TEST(TileScheduler, ComputeBoundSteadyState)
{
    // load 5, compute 20 each: loads hide entirely behind compute.
    const std::vector<TileCost> t(10, TileCost{5, 20, 0});
    EXPECT_EQ(doubleBufferedCycles(t), 5u + 10u * 20u);
}

TEST(TileScheduler, MemoryBoundSteadyState)
{
    // load 20, compute 5: compute hides behind the load stream.
    const std::vector<TileCost> t(10, TileCost{20, 5, 0});
    EXPECT_EQ(doubleBufferedCycles(t), 10u * 20u + 5u);
}

TEST(TileScheduler, OverlapNeverWorseThanSerial)
{
    Rng rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<TileCost> t(1 + rng.uniformInt(8));
        for (auto &tc : t) {
            tc.load = rng.uniformInt(30);
            tc.compute = rng.uniformInt(30);
            tc.store = rng.uniformInt(30);
        }
        EXPECT_LE(doubleBufferedCycles(t), serialSum(t));
    }
}

TEST(TileScheduler, LowerBoundIsEachResourceSum)
{
    Rng rng(2);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<TileCost> t(1 + rng.uniformInt(8));
        Cycles load = 0, comp = 0, store = 0;
        for (auto &tc : t) {
            tc.load = rng.uniformInt(30);
            tc.compute = rng.uniformInt(30);
            tc.store = rng.uniformInt(30);
            load += tc.load;
            comp += tc.compute;
            store += tc.store;
        }
        const Cycles total = doubleBufferedCycles(t);
        EXPECT_GE(total, load);
        EXPECT_GE(total, comp);
        EXPECT_GE(total, store);
    }
}

TEST(TileScheduler, ZeroPhasesDegenerate)
{
    const std::vector<TileCost> t = {{0, 10, 0}, {0, 20, 0}};
    EXPECT_EQ(doubleBufferedCycles(t), 30u);
}

TEST(TileScheduler, StoreDrainCounted)
{
    const std::vector<TileCost> t = {{1, 1, 100}};
    EXPECT_EQ(doubleBufferedCycles(t), 102u);
}

} // namespace
} // namespace vitcod::sim
