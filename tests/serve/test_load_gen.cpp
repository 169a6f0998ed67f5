/**
 * @file
 * Arrival-process generation: determinism (a (seed, config) pair is
 * one trace), monotonicity, long-run mean-rate calibration across
 * both process families, and markov burstiness (inter-arrival CV^2
 * well above Poisson's 1).
 */

#include <gtest/gtest.h>

#include <vector>

#include "serve/load_gen.h"

namespace vitcod::serve {
namespace {

TrafficConfig
baseCfg(ArrivalProcess p, size_t requests, uint64_t seed = 1)
{
    TrafficConfig cfg;
    cfg.process = p;
    cfg.ratePerSec = 1000.0;
    cfg.requests = requests;
    cfg.seed = seed;
    return cfg;
}

double
interArrivalCv2(const std::vector<double> &t)
{
    double mean = 0, m2 = 0;
    const size_t n = t.size() - 1;
    for (size_t i = 1; i < t.size(); ++i)
        mean += t[i] - t[i - 1];
    mean /= static_cast<double>(n);
    for (size_t i = 1; i < t.size(); ++i) {
        const double d = (t[i] - t[i - 1]) - mean;
        m2 += d * d;
    }
    return m2 / static_cast<double>(n) / (mean * mean);
}

TEST(LoadGen, TracesAreDeterministicAndMonotonic)
{
    for (const auto p :
         {ArrivalProcess::Poisson, ArrivalProcess::MarkovOnOff}) {
        SCOPED_TRACE(static_cast<int>(p));
        const TrafficConfig cfg = baseCfg(p, 5000, 17);
        const auto a = generateArrivalTimes(cfg);
        const auto b = generateArrivalTimes(cfg);
        ASSERT_EQ(a.size(), cfg.requests);
        EXPECT_EQ(a, b);
        for (size_t i = 1; i < a.size(); ++i)
            ASSERT_LE(a[i - 1], a[i]);
        EXPECT_GT(a.front(), 0.0);
    }
}

TEST(LoadGen, SeedChangesTheTrace)
{
    const auto a =
        generateArrivalTimes(baseCfg(ArrivalProcess::Poisson, 100, 1));
    const auto b =
        generateArrivalTimes(baseCfg(ArrivalProcess::Poisson, 100, 2));
    EXPECT_NE(a, b);
}

TEST(LoadGen, LongRunMeanRateMatchesConfigForAllProcesses)
{
    // Every family is calibrated so the duty-weighted long-run mean
    // is ratePerSec; over ~50s of trace the realized rate must land
    // near it (markov has the widest variance: ~200 dwell cycles).
    constexpr size_t kN = 50000;
    for (const auto p :
         {ArrivalProcess::Poisson, ArrivalProcess::MarkovOnOff}) {
        SCOPED_TRACE(static_cast<int>(p));
        const auto t = generateArrivalTimes(baseCfg(p, kN, 3));
        const double realized =
            static_cast<double>(kN) / t.back();
        EXPECT_NEAR(realized, 1000.0, 150.0);
    }
}

TEST(LoadGen, MarkovIsBurstierThanPoisson)
{
    const auto poisson = generateArrivalTimes(
        baseCfg(ArrivalProcess::Poisson, 50000, 5));
    const auto markov = generateArrivalTimes(
        baseCfg(ArrivalProcess::MarkovOnOff, 50000, 5));

    // Exponential inter-arrivals have CV^2 = 1; the two-state MMPP
    // mixes a fast and a slow exponential, pushing CV^2 well past 1.
    EXPECT_NEAR(interArrivalCv2(poisson), 1.0, 0.1);
    EXPECT_GT(interArrivalCv2(markov), 1.5);
}

} // namespace
} // namespace vitcod::serve
