/**
 * @file
 * Tests of the MAC-line array shape.
 */

#include <gtest/gtest.h>

#include "sim/mac_array.h"

namespace vitcod::sim {
namespace {

TEST(MacArray, PaperConfigTotals)
{
    MacArrayConfig cfg;
    EXPECT_EQ(cfg.totalMacs(), 512u); // 64 lines x 8 MACs
}

} // namespace
} // namespace vitcod::sim
