/**
 * @file
 * Bit-exact regression fixture for buildModelPlan: every zoo model's
 * plan is reduced to one line per head (FNV-1a of the mask bytes and
 * of the permutation, the global-token count, the denser/sparser
 * nonzero split and the raw bits of the retained mass) plus one line
 * per plan (the raw bits of its averages and quality estimate), and
 * the whole text is compared with tests/data/zoo_plans.golden.
 *
 * Any change to the attention-map generator, the pruning selection,
 * the reordering or the AE fit that moves a single output bit fails
 * here. Regenerate after an intentional change with
 *
 *     core_test_plan_golden --update-goldens
 *
 * which rewrites the file in the source tree (the build embeds
 * VITCOD_TEST_DATA_DIR) and then re-runs the comparison against it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "model/vit_config.h"

namespace vitcod::core {
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

constexpr const char *kPlanGolden = "zoo_plans.golden";

uint64_t
fnv1a(const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Raw IEEE-754 bits of @p v as 16 hex digits. */
std::string
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(u));
    return buf;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Case
{
    model::VitModelConfig model;
    const char *sparsity; //!< printed as given, parsed for the config
    bool ae;
};

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (auto &m : model::allSevenModels())
        out.push_back({m, "0.9", true});
    out.push_back({model::levit128(), "0.8", true});
    out.push_back({model::deitTiny(), "0.5", false});
    out.push_back({model::deitTiny(), "0.95", false});
    return out;
}

/** One text record per head and per plan, in build order. */
std::string
renderPlans()
{
    std::ostringstream os;
    for (const Case &c : cases()) {
        const ModelPlan plan = buildModelPlan(
            c.model, makePipelineConfig(std::stod(c.sparsity), c.ae));
        const std::string tag = "'" + c.model.name + "' s=" +
                                c.sparsity + " ae=" +
                                (c.ae ? "1" : "0");
        for (const HeadPlan &hp : plan.heads) {
            const SparseAttentionPlan &p = hp.plan;
            os << tag << " l" << hp.layer << " h" << hp.head
               << " n=" << p.tokens << " mask="
               << hex64(fnv1a(p.mask.data(), p.mask.rows() *
                                                 p.mask.cols()))
               << " perm="
               << hex64(fnv1a(p.perm.data(),
                              p.perm.size() * sizeof(uint32_t)))
               << " ngt=" << p.numGlobalTokens
               << " denser=" << p.denserNnz
               << " sparser=" << p.sparserNnz
               << " mass=" << bitsOf(p.retainedMass) << "\n";
        }
        os << tag << " plan avgSparsity=" << bitsOf(plan.avgSparsity)
           << " avgRetainedMass=" << bitsOf(plan.avgRetainedMass)
           << " aeRelError=" << bitsOf(plan.aeRelError)
           << " estimatedQuality=" << bitsOf(plan.estimatedQuality)
           << "\n";
    }
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

TEST(PlanGolden, ZooPlansMatchCheckedInGolden)
{
    const std::string path = dataDir() + kPlanGolden;
    const std::string now = renderPlans();

    if (g_update_goldens)
        std::ofstream(path) << now;

    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::stringstream golden;
    golden << in.rdbuf();

    const auto want = splitLines(golden.str());
    const auto got = splitLines(now);
    EXPECT_EQ(got.size(), want.size()) << "record count differs";
    size_t reported = 0;
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        if (got[i] == want[i])
            continue;
        ADD_FAILURE() << "line " << i + 1 << " of " << path
                      << "\n  want: " << want[i]
                      << "\n  got:  " << got[i]
                      << "\n(regenerate with --update-goldens if "
                         "intentional)";
        if (++reported == 5)
            break;
    }
}

} // namespace
} // namespace vitcod::core

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            vitcod::core::g_update_goldens = true;
    return RUN_ALL_TESTS();
}
