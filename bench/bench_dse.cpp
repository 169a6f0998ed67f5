/**
 * @file
 * Design-space exploration throughput + quality harness: times the
 * exhaustive search of dse::Explorer on a DeiT workload bundle and
 * reports how many configurations were priced, the frontier size,
 * the evaluation throughput (the Schedule-IR pricing loop is the
 * hot path), and the quality of the result — best-latency speedup
 * over the default accelerator and whether a point dominating the
 * default on latency at equal-or-lower area was found. One JsonRow
 * per workload bundle.
 *
 * --smoke prices the small smokeSpace() grid on DeiT-Tiny only;
 * the full run explores defaultSpace() on a Tiny+Small bundle.
 */

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "dse/explorer.h"

using namespace vitcod;

namespace {

void
report(const std::string &bundle, const dse::DseResult &r, bool json)
{
    const dse::Objectives &base = r.baseline;
    const dse::DsePoint &best = r.frontier.bestLatency();
    const double speedup =
        base.latencySeconds / best.obj.latencySeconds;
    bool dominating = false;
    for (const dse::DsePoint &p : r.frontier.points())
        if (p.obj.latencySeconds < base.latencySeconds &&
            p.obj.areaMm2 <= base.areaMm2)
            dominating = true;
    const double evals_per_sec =
        r.wallSeconds > 0
            ? static_cast<double>(r.evaluated) / r.wallSeconds
            : 0.0;

    if (json) {
        bench::JsonRow()
            .set("bench", "dse")
            .set("bundle", bundle)
            .set("evaluated", r.evaluated)
            .set("frontier", static_cast<uint64_t>(
                                 r.frontier.points().size()))
            .set("wall_ms", r.wallSeconds * 1e3)
            .set("evals_per_sec", evals_per_sec)
            .set("best_latency_us",
                 best.obj.latencySeconds * 1e6)
            .set("speedup_vs_default", speedup)
            .set("dominates_default", dominating ? 1 : 0)
            .print();
    } else {
        std::printf(
            "%-18s evaluated %5llu  frontier %3zu  "
            "%8.1f evals/s  best %8.2f us  speedup %.3fx  "
            "dominates_default %d\n",
            bundle.c_str(),
            static_cast<unsigned long long>(r.evaluated),
            r.frontier.points().size(), evals_per_sec,
            best.obj.latencySeconds * 1e6, speedup, dominating);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::CliOptions opts = bench::parseCli(argc, argv);

    if (!opts.json)
        bench::printHeader("Design-space exploration",
                           "Sec. VII design-space insights");

    std::vector<dse::WorkloadSpec> bundle = {
        {"DeiT-Tiny", 0.9, true, false, 1.0}};
    std::string bundle_name = "DeiT-Tiny@0.9";
    if (!opts.smoke) {
        bundle.push_back({"DeiT-Small", 0.9, true, false, 1.0});
        bundle_name = "DeiT-Tiny+Small@0.9";
    }

    dse::ExplorerConfig ec;
    ec.threads = opts.threads; // 0 = shared engine pool
    dse::Explorer explorer(bundle,
                           opts.smoke
                               ? dse::HwConfigSpace::smokeSpace()
                               : dse::HwConfigSpace::defaultSpace(),
                           ec);

    report(bundle_name, explorer.exhaustive(), opts.json);
    return 0;
}
