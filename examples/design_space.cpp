/**
 * @file
 * Design-space exploration with the DSE engine (src/dse/): instead
 * of hand-picking a handful of configurations, this driver hands the
 * default hardware grid to dse::Explorer, which prices every point
 * through the Schedule IR and reports the Pareto frontier over
 * simulated latency, energy proxy and silicon-area proxy — the
 * "overall design space exploration can provide insights for
 * developing efficient ViT solutions" usage the paper advertises,
 * automated. Runnable companion of docs/DSE.md.
 *
 * Usage: vitcod_design_space [model] [sparsity] [out.json]
 *   model     model::modelByName() name   (default DeiT-Tiny)
 *   sparsity  attention-mask sparsity     (default 0.9)
 *   out.json  write the frontier result file (also .csv alongside)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.h"
#include "dse/explorer.h"

int
main(int argc, char **argv)
{
    using namespace vitcod;

    dse::WorkloadSpec wl;
    wl.model = argc > 1 ? argv[1] : "DeiT-Tiny";
    wl.sparsity = argc > 2 ? std::atof(argv[2]) : 0.9;

    dse::Explorer explorer({wl}, dse::HwConfigSpace::defaultSpace());

    const dse::Objectives base = explorer.baseline();
    printBanner(std::cout, "Workload " + wl.str() +
                               " on the default accelerator");
    std::cout << "latency " << base.latencySeconds * 1e6
              << " us, energy " << base.energyJoules * 1e6
              << " uJ, area proxy " << base.areaMm2 << " mm^2\n";

    // ---- Exact frontier of the grid.
    dse::DseResult ex = explorer.exhaustive();
    printBanner(std::cout, "Exhaustive grid");
    std::cout << ex.evaluated << " configurations priced in "
              << ex.wallSeconds << " s; frontier keeps "
              << ex.frontier.points().size() << " points\n\n";

    Table t({"MAC lines", "AE", "Split", "QKV KiB", "S KiB", "GB/s",
             "Latency (us)", "Energy (uJ)", "Area (mm^2)"});
    for (const dse::DsePoint &p : ex.frontier.points()) {
        t.row()
            .cell(static_cast<uint64_t>(p.hw.macLines))
            .cell(static_cast<uint64_t>(p.hw.aeLines))
            .cell(p.hw.sparserLineFrac, 2)
            .cell(static_cast<uint64_t>(p.hw.qkvBufBytes / 1024))
            .cell(static_cast<uint64_t>(p.hw.sBufferBytes / 1024))
            .cell(p.hw.bandwidthGBps, 1)
            .cell(p.obj.latencySeconds * 1e6, 2)
            .cell(p.obj.energyJoules * 1e6, 2)
            .cell(p.obj.areaMm2, 3);
    }
    t.print(std::cout);

    // ---- Pipelined objective mode: re-run the sweep with the
    // pipelined backpressure model (docs/SIMULATOR.md) on a
    // bandwidth-starved grid where the inter-stage FIFO depth — a
    // knob the analytic recurrence cannot see — becomes a real
    // latency lever. End-to-end scope: the dense block's
    // back-to-back loaded phases are where prefetch depth matters.
    dse::WorkloadSpec pwl = wl;
    pwl.endToEnd = true;
    dse::HwConfigSpace pspace = dse::HwConfigSpace::smokeSpace();
    pspace.bandwidthGBps = {12.8};
    pspace.pipeFifoDepth = {1, 1024};
    pspace.pipeStageLatency = {0, 16};
    pspace.base.pipeline.fifoChunkBytes = 1024;
    dse::Explorer pexplorer({pwl}, pspace,
                            {.simMode = sim::SimMode::Pipelined});
    const dse::DseResult pex = pexplorer.exhaustive();
    printBanner(std::cout,
                "Pipelined mode on a starved DRAM (12.8 GB/s)");
    std::cout << pex.evaluated
              << " configurations priced under SimMode::Pipelined; "
                 "frontier keeps "
              << pex.frontier.points().size() << " points\n\n";
    Table pt({"MAC lines", "S KiB", "FIFO depth", "Stage lat",
              "Latency (us)", "Energy (uJ)", "Area (mm^2)"});
    for (const dse::DsePoint &p : pex.frontier.points()) {
        pt.row()
            .cell(static_cast<uint64_t>(p.hw.macLines))
            .cell(static_cast<uint64_t>(p.hw.sBufferBytes / 1024))
            .cell(static_cast<uint64_t>(p.hw.pipeFifoDepth))
            .cell(static_cast<uint64_t>(p.hw.pipeStageLatency))
            .cell(p.obj.latencySeconds * 1e6, 2)
            .cell(p.obj.energyJoules * 1e6, 2)
            .cell(p.obj.areaMm2, 3);
    }
    pt.print(std::cout);

    // ---- The co-design payoff: a point that beats the default
    // configuration on latency without paying more silicon.
    const dse::DsePoint *win = nullptr;
    for (const dse::DsePoint &p : ex.frontier.points()) {
        if (p.obj.latencySeconds < base.latencySeconds &&
            p.obj.areaMm2 <= base.areaMm2) {
            win = &p;
            break; // frontier is latency-sorted: first hit is best
        }
    }
    printBanner(std::cout, "Tuned vs default");
    if (win == nullptr) {
        std::cout << "no config dominates the default point in this "
                     "space\n";
        return 1;
    }
    std::cout << "tuned: " << win->hw.macLines << " lines, "
              << win->hw.aeLines << " AE lines, split "
              << win->hw.sparserLineFrac << ", QKV "
              << win->hw.qkvBufBytes / 1024 << " KiB, S "
              << win->hw.sBufferBytes / 1024 << " KiB, "
              << win->hw.bandwidthGBps << " GB/s\n"
              << "  "
              << base.latencySeconds / win->obj.latencySeconds
              << "x faster at "
              << win->obj.areaMm2 / base.areaMm2
              << "x the area proxy of the default accelerator\n";

    if (argc > 3) {
        const std::string json = argv[3];
        ex.frontier.writeJsonFile(json);
        const size_t dot = json.rfind('.');
        const size_t slash = json.rfind('/');
        const bool has_ext =
            dot != std::string::npos &&
            (slash == std::string::npos || dot > slash);
        const std::string csv =
            (has_ext ? json.substr(0, dot) : json) + ".csv";
        ex.frontier.writeCsvFile(csv);
        std::cout << "\nfrontier written to " << json << " and "
                  << csv
                  << " (to serve the best point: ServerConfig::hw = "
                     "frontier.bestLatency().hw.apply(hw))\n";
    }
    return 0;
}
