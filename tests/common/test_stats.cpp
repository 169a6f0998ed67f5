/**
 * @file
 * Tests of RunningStat.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"

namespace vitcod {
namespace {

TEST(RunningStat, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.geomean(), 0.0);
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(RunningStat, GeomeanOfPowers)
{
    RunningStat s;
    s.add(1.0);
    s.add(4.0);
    s.add(16.0);
    EXPECT_NEAR(s.geomean(), 4.0, 1e-12);
}

TEST(RunningStat, GeomeanZeroWhenNonPositiveSample)
{
    RunningStat s;
    s.add(3.0);
    s.add(-1.0);
    EXPECT_DOUBLE_EQ(s.geomean(), 0.0);
}

TEST(RunningStat, MinMaxSum)
{
    RunningStat s;
    s.add(3.0);
    s.add(-2.0);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.min(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), 10.0);
    EXPECT_DOUBLE_EQ(s.sum(), 11.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_NEAR(s.geomean(), 42.0, 1e-9);
}

} // namespace
} // namespace vitcod
