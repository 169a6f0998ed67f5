/**
 * @file
 * sim_dse: the accelerator design loop. Two dse::Explorers, Analytic
 * and Pipelined, over a DeiT-Tiny/Small/Base @ 0.9 bundle (AE on,
 * end to end) search HwConfigSpace::defaultSpace() exhaustively, one
 * pool worker each. One operation is a warm search in both modes;
 * no CPU kernel runs. Also home of the compile-chain replay the
 * serving workload shares.
 */

#include <memory>

#include "suite.h"
#include "accel/compiler.h"
#include "accel/vitcod_accel.h"
#include "core/schedule/builder.h"
#include "dse/explorer.h"

namespace vitcod::suite {

std::vector<core::ModelPlan>
buildPlans(const std::vector<ChainSpec> &specs, double *mean_s)
{
    std::vector<core::ModelPlan> plans;
    const auto t0 = Clock::now();
    for (const ChainSpec &s : specs)
        plans.push_back(core::buildModelPlan(
            model::modelByName(s.model),
            core::makePipelineConfig(s.sparsity, s.useAe)));
    *mean_s = secondsSince(t0) / static_cast<double>(specs.size());
    return plans;
}

void
replayChain(const std::vector<ChainSpec> &specs,
            const std::vector<core::ModelPlan> &plans, bool layouts,
            double seconds, Report &r)
{
    const accel::ViTCoDConfig hw;
    const core::schedule::ScheduleBuilder builder(
        {.hw = accel::scheduleParams(hw), .buildLayouts = layouts});
    const accel::Compiler compiler(hw);
    const accel::Interpreter interp(hw);
    const accel::ViTCoDAccelerator acc(hw);

    std::vector<double> build_ms, compile_us, interp_us, analytic_us,
        pipe_us, events_per_s;
    uint64_t events = 0;
    Cycles cycles_a = 0, cycles_p = 0;
    const double per_model = 1.0 / static_cast<double>(plans.size());
    repeatFor(seconds, 3, [&](size_t i) {
        const uint64_t op = i + 1;
        Span root("accel.replay", nullptr, op);
        double b = 0, c = 0, in = 0, a = 0, p = 0;
        events = 0;
        cycles_a = cycles_p = 0;
        for (size_t k = 0; k < plans.size(); ++k) {
            core::schedule::ModelSchedule sched;
            {
                Span s("schedule.build", &b, op);
                sched = builder.build(plans[k], specs[k].endToEnd);
            }
            accel::Program prog;
            {
                Span s("accel.compile", &c, op);
                prog = compiler.compile(sched);
            }
            {
                Span s("accel.interpret", &in, op);
                interp.execute(prog);
            }
            accel::RunStats ra, rp;
            {
                Span s("accel.price_analytic", &a, op);
                ra = acc.runSchedule(sched, sim::SimMode::Analytic);
            }
            {
                Span s("sim.price_pipelined", &p, op);
                rp = acc.runSchedule(sched, sim::SimMode::Pipelined);
            }
            events += rp.pipeline.events;
            cycles_a += ra.cycles;
            cycles_p += rp.cycles;
        }
        build_ms.push_back(b * 1e3 * per_model);
        compile_us.push_back(c * 1e6 * per_model);
        interp_us.push_back(in * 1e6 * per_model);
        analytic_us.push_back(a * 1e6 * per_model);
        pipe_us.push_back(p * 1e6 * per_model);
        events_per_s.push_back(static_cast<double>(events) / p);
    });

    r.layer("schedule.build_ms", median(build_ms), "ms");
    r.layer("accel.compile_us", median(compile_us), "us");
    r.layer("accel.interpret_us", median(interp_us), "us");
    r.layer("accel.price_analytic_us", median(analytic_us), "us");
    r.layer("sim.price_pipelined_us", median(pipe_us), "us");
    r.layer("sim.events_per_s", median(events_per_s), "1/s");
    r.layer("sim.events", static_cast<double>(events), "count");
    r.layer("sim.cycles_analytic", static_cast<double>(cycles_a),
            "cycles");
    r.layer("sim.cycles_pipelined", static_cast<double>(cycles_p),
            "cycles");
}

Report
runSim(const Options &opts)
{
    Report r;
    const std::vector<ChainSpec> specs = {
        {"DeiT-Tiny", 0.9, true, true},
        {"DeiT-Small", 0.9, true, true},
        {"DeiT-Base", 0.9, true, true},
    };
    std::vector<dse::WorkloadSpec> bundle;
    for (const ChainSpec &s : specs)
        bundle.push_back({s.model, s.sparsity, s.useAe, s.endToEnd, 1.0});
    const dse::HwConfigSpace space = dse::HwConfigSpace::defaultSpace();

    // Set-up: the two Explorer constructors (every bundle plan built
    // and the base configuration priced, per explorer).
    std::unique_ptr<dse::Explorer> analytic, pipelined;
    std::vector<double> setup_s;
    repeatSetup(opts, 3, [&](size_t) {
        analytic.reset();
        pipelined.reset();
        const auto t0 = Clock::now();
        analytic = std::make_unique<dse::Explorer>(
            bundle, space,
            dse::ExplorerConfig{.threads = 1,
                                .simMode = sim::SimMode::Analytic});
        pipelined = std::make_unique<dse::Explorer>(
            bundle, space,
            dse::ExplorerConfig{.threads = 1,
                                .simMode = sim::SimMode::Pipelined});
        setup_s.push_back(secondsSince(t0));
    });

    // The cold searches fill each explorer's schedule memo; every
    // warm search must reproduce their frontiers exactly.
    const auto cold0 = Clock::now();
    const dse::DseResult cold_a = analytic->exhaustive();
    const dse::DseResult cold_p = pipelined->exhaustive();
    const double cold_ms = secondsSince(cold0) * 1e3;

    std::vector<double> op_s;
    const auto search = [&](uint64_t op, double *dt) {
        dse::DseResult a, p;
        {
            Span s("dse.search", dt, op);
            {
                Span sa("dse.exhaustive_analytic", nullptr, op);
                a = analytic->exhaustive();
            }
            {
                Span sp("dse.exhaustive_pipelined", nullptr, op);
                p = pipelined->exhaustive();
            }
        }
        ++r.attempted;
        if (!(a.frontier == cold_a.frontier) ||
            !(p.frontier == cold_p.frontier))
            ++r.failed;
    };

    const double timed_s = opts.smoke    ? opts.seconds
                           : opts.traced() ? opts.seconds * 0.5
                                           : opts.seconds;
    repeatFor(timed_s, opts.minReps(), [&](size_t i) {
        double dt = 0;
        search(i + 1, &dt);
        op_s.push_back(dt);
    });

    // Every search prices the whole grid: one point per valid index.
    const auto points = static_cast<double>(cold_a.evaluated +
                                            cold_p.evaluated);
    r.e2e("latency_p50_ms", median(op_s) * 1e3, "ms");
    r.e2e("throughput_per_s", groupedRate(op_s, points), "1/s");
    r.e2e("setup_s", median(setup_s), "s");

    // Differential check per bundle model: with FIFOs deep enough to
    // never stall, the pipelined model must price exactly the
    // analytic cycles (docs/SIMULATOR.md).
    double plan_s = 0;
    const std::vector<core::ModelPlan> plans = buildPlans(specs, &plan_s);
    accel::ViTCoDConfig deep;
    deep.pipeline.fetchFifoDepth = size_t{1} << 20;
    deep.pipeline.writebackFifoDepth = size_t{1} << 20;
    const accel::ViTCoDAccelerator deep_acc(deep);
    const core::schedule::ScheduleBuilder deep_builder(
        {.hw = accel::scheduleParams(deep), .buildLayouts = false});
    for (size_t k = 0; k < plans.size(); ++k) {
        const auto sched = deep_builder.build(plans[k], specs[k].endToEnd);
        ++r.attempted;
        if (deep_acc.runSchedule(sched, sim::SimMode::Analytic).cycles !=
            deep_acc.runSchedule(sched, sim::SimMode::Pipelined).cycles)
            ++r.failed;
    }

    if (opts.traced()) {
        const double phase_s = opts.smoke ? opts.seconds
                                          : opts.seconds * 0.2;
        startTrace(opts);
        replayChain(specs, plans, false, phase_s, r);
        std::vector<double> traced_s;
        repeatFor(phase_s, opts.minReps(), [&](size_t i) {
            double dt = 0;
            search(i + 1, &dt);
            traced_s.push_back(dt);
        });
        finishTrace(opts);

        r.layer("core.plan_build_s", plan_s, "s");
        r.layer("dse.cold_search_ms", cold_ms, "ms");
        r.layer("dse.points", points, "count");
        r.layer("dse.frontier_points",
                static_cast<double>(cold_a.frontier.points().size() +
                                    cold_p.frontier.points().size()),
                "count");
        r.layer("dse.best_latency_us",
                cold_a.frontier.bestLatency().obj.latencySeconds * 1e6,
                "us");
        r.layer("trace.overhead_frac",
                median(traced_s) / median(op_s) - 1.0, "fraction");
    }
    return r;
}

} // namespace vitcod::suite
