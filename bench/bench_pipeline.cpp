/**
 * @file
 * Pipelined-simulator bench: prices the same schedules under
 * SimMode::Analytic and SimMode::Pipelined (sim/pipeline_model.h)
 * and reports (a) the cycle ratio between the two — exactly 1.0 on
 * a deep-FIFO machine, the validation contract of
 * docs/SIMULATOR.md, and > 1.0 on a shallow-FIFO machine behind a
 * starved DRAM where backpressure stalls are real — and (b) the
 * pricing throughput of the machine itself, in stage operations
 * (PipelineStats::events) per second. The ratios
 * are ratios of two cycle counts from the same run, so the
 * perf-smoke gate (bench/baselines/pipeline_baseline.json)
 * transfers across runner speeds; events/sec is gated only by a
 * loose absolute floor.
 */

#include <chrono>
#include <iostream>
#include <vector>

#include "accel/vitcod_accel.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "core/schedule/builder.h"

using namespace vitcod;

namespace {

/** End-to-end schedule of @p plan for @p cfg's hardware. */
core::schedule::ModelSchedule
scheduleFor(const accel::ViTCoDConfig &cfg,
            const core::ModelPlan &plan)
{
    const core::schedule::ScheduleBuilder builder(
        {.hw = accel::scheduleParams(cfg), .buildLayouts = false});
    return builder.build(plan, /*end_to_end=*/true);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::CliOptions opts = bench::parseCli(argc, argv);
    if (!opts.json)
        bench::printHeader(
            "Pipelined simulator - backpressure pricing and "
            "stage-operation throughput",
            "finite-FIFO recurrence over the analytic model's "
            "items; validation contract in docs/SIMULATOR.md");

    bench::PlanCache cache;
    const double sparsity = 0.9;
    std::vector<model::VitModelConfig> models = {model::deitTiny()};
    if (!opts.smoke) {
        models.push_back(model::deitSmall());
        models.push_back(model::deitBase());
    }

    Table t({"Model", "Analytic (us)", "Deep pipe (us)", "Ratio",
             "Starved analytic (us)", "Starved pipe (us)", "Ratio",
             "Stall share", "Events/s (M)"});
    for (const auto &m : models) {
        const auto &plan = cache.get(m, sparsity, true);

        // Deep-FIFO machine at the paper's bandwidth: stall-free,
        // must agree with the analytic recurrence cycle-exactly.
        accel::ViTCoDConfig deep_cfg;
        deep_cfg.pipeline.fetchFifoDepth = size_t{1} << 20;
        deep_cfg.pipeline.writebackFifoDepth = size_t{1} << 20;
        const accel::ViTCoDAccelerator deep(deep_cfg);
        const auto sched = scheduleFor(deep_cfg, plan);
        const accel::RunStats da =
            deep.runSchedule(sched, sim::SimMode::Analytic);
        const accel::RunStats dp =
            deep.runSchedule(sched, sim::SimMode::Pipelined);
        const double deep_ratio = static_cast<double>(dp.cycles) /
                                  static_cast<double>(da.cycles);

        // Shallow FIFOs + stage latencies behind an edge-class DRAM:
        // the pipelined model exposes stalls the recurrence cannot.
        accel::ViTCoDConfig tight_cfg;
        tight_cfg.dram.bandwidthGBps = 12.8;
        tight_cfg.pipeline.fetchFifoDepth = 2;
        tight_cfg.pipeline.writebackFifoDepth = 1;
        tight_cfg.pipeline.fifoChunkBytes = 1024;
        tight_cfg.pipeline.fetchLatency = 8;
        tight_cfg.pipeline.denserLatency = 4;
        tight_cfg.pipeline.sparserLatency = 4;
        tight_cfg.pipeline.writebackLatency = 8;
        const accel::ViTCoDAccelerator tight(tight_cfg);
        const accel::RunStats ta =
            tight.runSchedule(sched, sim::SimMode::Analytic);
        const accel::RunStats tp =
            tight.runSchedule(sched, sim::SimMode::Pipelined);
        const double tight_ratio = static_cast<double>(tp.cycles) /
                                   static_cast<double>(ta.cycles);
        const double stall_share =
            static_cast<double>(tp.pipeline.stallCycles()) /
            static_cast<double>(tp.pipeline.fetch.total() * 4);

        // Stage-operation throughput of the machine itself (wall
        // time of the whole pipelined pricing, operations from the
        // exact events count).
        const int reps = opts.smoke ? 3 : 10;
        const auto t0 = std::chrono::steady_clock::now();
        uint64_t events = 0;
        for (int r = 0; r < reps; ++r)
            events +=
                tight.runSchedule(sched, sim::SimMode::Pipelined)
                    .pipeline.events;
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const double events_per_sec =
            secs > 0.0 ? static_cast<double>(events) / secs : 0.0;

        if (opts.json) {
            const auto row = [&](const char *kernel, double value) {
                bench::JsonRow()
                    .set("bench", "pipeline")
                    .set("kernel", kernel)
                    .set("n", static_cast<uint64_t>(m.maxTokens()))
                    .set("d",
                         static_cast<uint64_t>(m.maxEmbedDim()))
                    .set("sparsity", sparsity)
                    .set("threads", 1)
                    .set("metric", "value")
                    .set("value", value)
                    .print();
            };
            row("cycle_ratio_deep", deep_ratio);
            row("cycle_ratio_tight", tight_ratio);
            row("events_per_sec", events_per_sec);
        } else {
            t.row()
                .cell(m.name)
                .cell(da.seconds * 1e6, 1)
                .cell(dp.seconds * 1e6, 1)
                .cellRatio(deep_ratio, 4)
                .cell(ta.seconds * 1e6, 1)
                .cell(tp.seconds * 1e6, 1)
                .cellRatio(tight_ratio, 3)
                .cell(stall_share, 3)
                .cell(events_per_sec / 1e6, 2);
        }
    }
    if (!opts.json) {
        t.print(std::cout);
        std::cout
            << "\nDeep ratio is the validation contract (== 1.0); "
               "the starved ratio is the backpressure the analytic "
               "model cannot see.\n";
    }
    return 0;
}
