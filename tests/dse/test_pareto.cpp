/**
 * @file
 * Pareto-frontier tests: dominance semantics, the non-dominated-set
 * invariant under any insertion order, deterministic sorting, exact
 * JSON round-trips (metadata, workloads, 17-digit doubles), CSV
 * shape, and parser rejection of malformed documents (bad numbers,
 * bad escapes, runaway nesting).
 */

#include <gtest/gtest.h>

#include <cstdio>
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

/** A valid one-frontier-point result file. */
ParetoFrontier
onePoint()
{
    ParetoFrontier f;
    f.workloads = {{"DeiT-Tiny", 0.9, true, false, 1.0}};
    f.insert(point(1, 1.0, 1.0, 1.0));
    return f;
}

std::string
json(const ParetoFrontier &f)
{
    std::stringstream ss;
    f.writeJson(ss);
    return ss.str();
}

/** @p doc with @p from replaced by @p to. */
std::string
tampered(const std::string &from, const std::string &to,
         std::string doc = json(onePoint()))
{
    const size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? doc
                                   : doc.replace(at, from.size(), to);
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

TEST(ParetoJson, RoundTripsExactly)
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

    std::stringstream ss;
    f.writeJson(ss);
    const ParetoFrontier back = ParetoFrontier::readJson(ss);
    EXPECT_EQ(back, f);

    // File form too (PID-unique path per TESTING.md).
    const std::string path = test::uniqueTempPath("frontier.json");
    f.writeJsonFile(path);
    EXPECT_EQ(ParetoFrontier::readJsonFile(path), f);
    std::remove(path.c_str());
}

TEST(ParetoJson, EmptyFrontierRoundTrips)
{
    ParetoFrontier f;
    std::stringstream ss;
    f.writeJson(ss);
    const ParetoFrontier back = ParetoFrontier::readJson(ss);
    EXPECT_EQ(back, f);
    EXPECT_TRUE(back.points().empty());
}

TEST(ParetoJson, IgnoresProvenanceKeys)
{
    // Version-1 files from other writers carry a different algorithm
    // name and seed; both are provenance only.
    std::stringstream ss(tampered(
        "\"seed\": 0", "\"seed\": 42",
        tampered("\"algorithm\": \"exhaustive\"",
                 "\"algorithm\": \"coordinate\"")));
    EXPECT_EQ(ParetoFrontier::readJson(ss), onePoint());
}

TEST(ParetoJson, RejectsGarbage)
{
    std::stringstream not_json("pareto? no.");
    EXPECT_DEATH((void)ParetoFrontier::readJson(not_json),
                 "parse error");

    std::stringstream wrong_tag(
        "{\"format\": \"something-else\", \"version\": 1}");
    EXPECT_DEATH((void)ParetoFrontier::readJson(wrong_tag),
                 "format");

    // Numbers must be one number from end to end; unsigned fields
    // take neither a sign nor an overflowing value.
    const auto rejects = [](const std::string &doc,
                            const std::string &why) {
        std::stringstream ss(doc);
        EXPECT_DEATH((void)ParetoFrontier::readJson(ss), why)
            << doc.substr(0, 200);
    };
    rejects(tampered("\"mac_lines\": 33", "\"mac_lines\": -1"),
            "bad number");
    rejects(tampered("\"mac_lines\": 33", "\"mac_lines\": 12-3"),
            "bad number");
    rejects(tampered("\"mac_lines\": 33",
                     "\"mac_lines\": 18446744073709551616"),
            "bad number");
    rejects(tampered("\"latency_s\": 1", "\"latency_s\": --"),
            "bad number");

    // A \u escape needs four hex digits.
    rejects(tampered("\"DeiT-Tiny\"", "\"DeiT\\u00zz\""), "bad .u");
    rejects(tampered("\"DeiT-Tiny\"", "\"DeiT\\u-001\""), "bad .u");

    // Deep nesting fails cleanly instead of exhausting the stack.
    rejects(std::string(1000000, '['), "nesting too deep");
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
