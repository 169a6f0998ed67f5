/**
 * @file
 * Pareto-frontier tests: dominance semantics, the non-dominated-set
 * invariant under any insertion order, deterministic sorting, the
 * exact bytes of the JSON writer (metadata, workloads, 17-digit
 * doubles, empty lists) and CSV shape.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "dse/pareto.h"
#include "support/temp_path.h"

namespace vitcod::dse {
namespace {

DsePoint
point(size_t index, double lat, double energy, double area)
{
    DsePoint p;
    p.index = index;
    p.hw.macLines = 32 + index;
    p.obj = {lat, energy, area};
    return p;
}

std::string
json(const ParetoFrontier &f)
{
    std::stringstream ss;
    f.writeJson(ss);
    return ss.str();
}

TEST(Dominance, StrictOnAtLeastOneObjective)
{
    const Objectives a{1.0, 1.0, 1.0};
    const Objectives better_lat{0.5, 1.0, 1.0};
    const Objectives tradeoff{0.5, 2.0, 1.0};
    EXPECT_TRUE(dominates(better_lat, a));
    EXPECT_FALSE(dominates(a, better_lat));
    EXPECT_FALSE(dominates(tradeoff, a));
    EXPECT_FALSE(dominates(a, tradeoff));
    // Equal vectors dominate in neither direction.
    EXPECT_FALSE(dominates(a, a));
}

TEST(ParetoFrontier, KeepsExactlyTheNonDominatedSet)
{
    ParetoFrontier f;
    EXPECT_TRUE(f.insert(point(0, 2.0, 2.0, 2.0)));
    // Dominated by #0 on every objective: rejected.
    EXPECT_FALSE(f.insert(point(1, 3.0, 3.0, 3.0)));
    // Trade-off against #0: kept.
    EXPECT_TRUE(f.insert(point(2, 1.0, 3.0, 2.0)));
    // Dominates #0: replaces it.
    EXPECT_TRUE(f.insert(point(3, 1.5, 1.5, 1.5)));

    ASSERT_EQ(f.points().size(), 2u);
    // Sorted by latency ascending.
    EXPECT_EQ(f.points()[0].index, 2u);
    EXPECT_EQ(f.points()[1].index, 3u);
    EXPECT_EQ(f.bestLatency().index, 2u);

    // Mutual non-dominance invariant.
    for (const DsePoint &a : f.points())
        for (const DsePoint &b : f.points())
            EXPECT_FALSE(dominates(a.obj, b.obj));

    EXPECT_FALSE(f.nonDominated({9.0, 9.0, 9.0}));
    EXPECT_TRUE(f.nonDominated({0.1, 9.0, 9.0}));
}

TEST(ParetoFrontier, InsertionOrderDoesNotMatter)
{
    const std::vector<DsePoint> pts = {
        point(0, 2.0, 2.0, 2.0), point(1, 3.0, 3.0, 3.0),
        point(2, 1.0, 3.0, 2.0), point(3, 1.5, 1.5, 1.5),
        point(4, 1.0, 3.0, 2.0)}; // same objectives as #2: coexists

    ParetoFrontier fwd, rev;
    for (const DsePoint &p : pts)
        fwd.insert(p);
    for (auto it = pts.rbegin(); it != pts.rend(); ++it)
        rev.insert(*it);
    EXPECT_EQ(fwd.points(), rev.points());
    // Equal-cost distinct configs both survive, deterministically
    // ordered by index.
    ASSERT_EQ(fwd.points().size(), 3u);
    EXPECT_EQ(fwd.points()[0].index, 2u);
    EXPECT_EQ(fwd.points()[1].index, 4u);
}

TEST(ParetoFrontier, DuplicatePointIsRejected)
{
    ParetoFrontier f;
    EXPECT_TRUE(f.insert(point(7, 1.0, 1.0, 1.0)));
    EXPECT_FALSE(f.insert(point(7, 1.0, 1.0, 1.0)));
    EXPECT_EQ(f.points().size(), 1u);
}

TEST(ParetoJson, WritesExactBytes)
{
    ParetoFrontier f;
    f.evaluated = 17;
    f.workloads = {{"DeiT-Tiny", 0.9, true, false, 1.0},
                   {"LeViT-128", 0.8, false, true, 1.0 / 3.0}};
    DsePoint a = point(3, 1.0 / 3.0, 2.625e-5, 2.87672e0);
    a.hw.sparserLineFrac = 0.3;
    a.hw.bandwidthGBps = 76.8;
    DsePoint b = point(11, 0.1, 1e-7, 9.999999999999999e2);
    f.insert(a);
    f.insert(b);

    // Doubles at 17 significant digits, points in frontier order.
    const std::string want =
        "{\n"
        "  \"format\": \"vitcod-dse-frontier\",\n"
        "  \"version\": 1,\n"
        "  \"algorithm\": \"exhaustive\",\n"
        "  \"seed\": 0,\n"
        "  \"evaluated\": 17,\n"
        "  \"workloads\": [\n"
        "    {\"model\": \"DeiT-Tiny\", "
        "\"sparsity\": 0.90000000000000002, \"use_ae\": true, "
        "\"end_to_end\": false, \"weight\": 1},\n"
        "    {\"model\": \"LeViT-128\", "
        "\"sparsity\": 0.80000000000000004, \"use_ae\": false, "
        "\"end_to_end\": true, \"weight\": 0.33333333333333331}\n"
        "  ],\n"
        "  \"points\": [\n"
        "    {\"index\": 11, \"mac_lines\": 43, \"macs_per_line\": 8, "
        "\"ae_lines\": 16, \"sparser_frac\": 0, "
        "\"qkv_buf_bytes\": 131072, \"s_buf_bytes\": 98304, "
        "\"bandwidth_gbps\": 76.799999999999997, "
        "\"pipe_fifo_depth\": 64, \"pipe_stage_latency\": 0, "
        "\"latency_s\": 0.10000000000000001, "
        "\"energy_j\": 9.9999999999999995e-08, "
        "\"area_mm2\": 999.99999999999989},\n"
        "    {\"index\": 3, \"mac_lines\": 35, \"macs_per_line\": 8, "
        "\"ae_lines\": 16, \"sparser_frac\": 0.29999999999999999, "
        "\"qkv_buf_bytes\": 131072, \"s_buf_bytes\": 98304, "
        "\"bandwidth_gbps\": 76.799999999999997, "
        "\"pipe_fifo_depth\": 64, \"pipe_stage_latency\": 0, "
        "\"latency_s\": 0.33333333333333331, "
        "\"energy_j\": 2.6250000000000001e-05, "
        "\"area_mm2\": 2.8767200000000002}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(json(f), want);

    // File form too (PID-unique path per TESTING.md).
    const std::string path = test::uniqueTempPath("frontier.json");
    f.writeJsonFile(path);
    std::ifstream in(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), want);
    std::remove(path.c_str());
}

TEST(ParetoJson, EmptyFrontierWritesEmptyLists)
{
    EXPECT_EQ(json(ParetoFrontier{}),
              "{\n"
              "  \"format\": \"vitcod-dse-frontier\",\n"
              "  \"version\": 1,\n"
              "  \"algorithm\": \"exhaustive\",\n"
              "  \"seed\": 0,\n"
              "  \"evaluated\": 0,\n"
              "  \"workloads\": [],\n"
              "  \"points\": []\n"
              "}\n");
}

TEST(ParetoCsv, OneHeaderOneRowPerPoint)
{
    ParetoFrontier f;
    f.insert(point(0, 2.0, 2.0, 2.0));
    f.insert(point(2, 1.0, 3.0, 2.0));
    std::stringstream ss;
    f.writeCsv(ss);
    std::string line;
    size_t lines = 0;
    while (std::getline(ss, line))
        ++lines;
    EXPECT_EQ(lines, 1u + f.points().size());
    std::stringstream again;
    f.writeCsv(again);
    std::getline(again, line);
    EXPECT_EQ(line.substr(0, 15), "index,mac_lines");
}

} // namespace
} // namespace vitcod::dse
