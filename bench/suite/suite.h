/**
 * @file
 * Shared pieces of the repo benchmark driver (vitcod_bench): the run
 * options, the metric report the driver prints, timing helpers and
 * the outside-in span that times one public library call.
 *
 * The driver only ever calls the library's public API. Every
 * per-layer number comes from timing those calls from the outside;
 * nothing inside src/ is instrumented for this benchmark.
 */

#ifndef VITCOD_BENCH_SUITE_SUITE_H
#define VITCOD_BENCH_SUITE_SUITE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace vitcod::suite {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one driver run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase (set-up and checks come on top). */
    double seconds = 10.0;
    /** ~1/20-length run: one set-up repetition, short phases. */
    bool smoke = false;
    /** When non-empty: traced run, Chrome JSON written here. */
    std::string traceFile;
    /** Corrupt one output on purpose (proves the checks are live). */
    bool injectFault = false;

    bool traced() const { return !traceFile.empty(); }

    /** Fewest repetitions of any timed phase, however long it runs. */
    size_t minReps() const { return smoke ? 1 : 3; }
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run measured and checked. */
struct Report
{
    uint64_t attempted = 0; //!< operations whose outputs were checked
    uint64_t failed = 0;    //!< operations that failed a check
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer; //!< filled by traced runs only
    std::string isa; //!< resolved ISA of the optimized kernels

    void e2e(const std::string &name, double v, const std::string &unit)
    {
        endToEnd.push_back({name, v, unit});
    }
    void layer(const std::string &name, double v,
               const std::string &unit)
    {
        perLayer.push_back({name, v, unit});
    }

    /** One-line JSON object (the driver's only stdout line). */
    std::string json(const Options &opts) const;
};

/** @name Order statistics (linear interpolation between ranks)
 *  @{ */
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}
/** @} */

/** Call fn(i) until @p seconds passed and at least @p min_reps ran. */
template <typename Fn>
void
repeatFor(double seconds, size_t min_reps, Fn &&fn)
{
    const auto t0 = Clock::now();
    for (size_t i = 0; i < min_reps || secondsSince(t0) < seconds; ++i)
        fn(i);
}

/**
 * Repeat a set-up step for a median: at least @p min_reps times and
 * for at least two seconds, so the reps sample a shared host's slow
 * and fast stretches instead of one of them (once when smoke).
 */
template <typename Fn>
void
repeatSetup(const Options &opts, size_t min_reps, Fn &&fn)
{
    if (opts.smoke)
        fn(0);
    else
        repeatFor(2.0, min_reps, fn);
}

/**
 * Work per second of a closed loop: @p op_s holds the seconds of each
 * operation in order, each completing @p work_per_op units. The rate
 * is the median over five consecutive groups of operations, so one
 * slow stretch of a shared host moves one group, not the result.
 */
double groupedRate(const std::vector<double> &op_s, double work_per_op);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Times one outside call into the library: the elapsed seconds are
 * added to *accum (when non-null) and, while an obs::TraceSession
 * runs, the call is recorded as a Complete span named @p name (a
 * string literal) in category "bench", with @p op as its "op" arg.
 */
class Span
{
  public:
    explicit Span(const char *name, double *accum = nullptr,
                  uint64_t op = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    double *accum_;
    uint64_t op_;
    bool live_;
    int64_t startMicros_ = 0;
    Clock::time_point t0_;
};

/** Start the process-wide trace session (no-op when untraced). */
void startTrace(const Options &opts);

/** Stop the session and write opts.traceFile (no-op untraced). */
void finishTrace(const Options &opts);

/** One task of the plan -> schedule -> program -> price chain. */
struct ChainSpec
{
    const char *model;
    double sparsity;
    bool useAe;
    bool endToEnd;
};

/**
 * Build each spec's ModelPlan (core::buildModelPlan); the mean
 * build time per model lands in *mean_s.
 */
std::vector<core::ModelPlan> buildPlans(const std::vector<ChainSpec> &specs,
                                        double *mean_s);

/**
 * Replay the accelerator compile chain on @p plans for @p seconds —
 * ScheduleBuilder::build, Compiler::compile, Interpreter::execute
 * and ViTCoDAccelerator::runSchedule in both sim modes, each timed
 * from outside under its own span at the paper's default hardware —
 * and add the per-layer metrics (means per model; cycle and event
 * counts summed over the models). @p layouts mirrors whether the
 * workload's own schedules carry runtime layouts.
 */
void replayChain(const std::vector<ChainSpec> &specs,
                 const std::vector<core::ModelPlan> &plans, bool layouts,
                 double seconds, Report &r);

/** @name Workloads
 *  @{ */
Report runForward(const Options &opts);
Report runServe(const Options &opts);
Report runSim(const Options &opts);
/** @} */

} // namespace vitcod::suite

#endif // VITCOD_BENCH_SUITE_SUITE_H
