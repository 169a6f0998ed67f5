/**
 * @file
 * vitcod_bench: the repo benchmark's driver. One process runs one
 * workload and prints one JSON line with every metric it measured
 * and how many operations passed their output checks. run.py builds
 * this binary, runs it once per workload and formats the result.
 *
 *   vitcod_bench --workload NAME --seed N [--seconds S] [--smoke]
 *                [--trace FILE] [--inject-fault]
 *
 * Workloads: fwd_tiny_b1, fwd_levit_b1, fwd_small_b4, serve_burst,
 * sim_dse (see README.md for why each exists).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "suite.h"
#include "linalg/engine/engine.h"
#include "obs/trace.h"

namespace vitcod::suite {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
groupedRate(const std::vector<double> &op_s, double work_per_op)
{
    const size_t n = op_s.size();
    const size_t groups = std::min<size_t>(5, n);
    std::vector<double> rates;
    for (size_t g = 0; g < groups; ++g) {
        const size_t lo = g * n / groups, hi = (g + 1) * n / groups;
        double busy = 0;
        for (size_t i = lo; i < hi; ++i)
            busy += op_s[i];
        rates.push_back(static_cast<double>(hi - lo) * work_per_op / busy);
    }
    return median(rates);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Span::Span(const char *name, double *accum, uint64_t op)
    : name_(name), accum_(accum), op_(op),
      live_(obs::TraceSession::enabled())
{
    if (live_)
        startMicros_ = obs::TraceSession::instance().nowMicros();
    t0_ = Clock::now();
}

Span::~Span()
{
    const double s = secondsSince(t0_);
    if (accum_)
        *accum_ += s;
    if (!live_)
        return;
    obs::TraceEvent ev;
    ev.name = name_;
    ev.category = "bench";
    ev.phase = obs::Phase::Complete;
    ev.tsMicros = startMicros_;
    // Read the session clock again rather than converting s: the
    // library spans this one wraps read it too, so the wrapper's end
    // is never before theirs and the nesting stays exact.
    ev.durMicros = obs::TraceSession::instance().nowMicros() - startMicros_;
    if (op_) {
        ev.argKey1 = "op";
        ev.argVal1 = static_cast<double>(op_);
    }
    obs::TraceSession::instance().record(ev);
}

void
startTrace(const Options &opts)
{
    if (!opts.traced())
        return;
    // Large enough that no bounded traced phase wraps a ring.
    obs::TraceSession::instance().start({.ringCapacity = 1 << 17});
}

void
finishTrace(const Options &opts)
{
    if (!opts.traced())
        return;
    obs::TraceSession &s = obs::TraceSession::instance();
    s.stop();
    const obs::TraceExportStats st = s.writeJsonFile(opts.traceFile);
    if (st.dropped != 0)
        std::fprintf(stderr, "vitcod_bench: trace dropped %zu events\n",
                     st.dropped);
}

namespace {

void
appendMetrics(std::ostringstream &os, const char *key,
              const std::vector<Metric> &ms)
{
    os << ",\"" << key << "\":{";
    for (size_t i = 0; i < ms.size(); ++i) {
        char num[64];
        // %.17g keeps every digit; non-finite values become null so
        // run.py rejects the run instead of misreading it.
        if (std::isfinite(ms[i].value))
            std::snprintf(num, sizeof num, "%.17g", ms[i].value);
        else
            std::snprintf(num, sizeof num, "null");
        os << (i ? "," : "") << '"' << ms[i].name << "\":{\"value\":"
           << num << ",\"unit\":\"" << ms[i].unit << "\"}";
    }
    os << '}';
}

} // namespace

std::string
Report::json(const Options &opts) const
{
    std::ostringstream os;
    os << "{\"workload\":\"" << opts.workload << "\",\"seed\":"
       << opts.seed << ",\"attempted\":" << attempted
       << ",\"failed\":" << failed;
    appendMetrics(os, "end_to_end", endToEnd);
    appendMetrics(os, "per_layer", perLayer);
    os << ",\"isa\":\"" << isa << "\"}";
    return os.str();
}

} // namespace vitcod::suite

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vitcod_bench: %s\nusage: vitcod_bench --workload NAME "
                 "--seed N [--seconds S] [--smoke] [--trace FILE] "
                 "[--inject-fault]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vitcod::suite;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing flag value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            opts.workload = value();
        else if (!std::strcmp(argv[i], "--seed"))
            opts.seed = std::strtoull(value(), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seconds"))
            opts.seconds = std::strtod(value(), nullptr);
        else if (!std::strcmp(argv[i], "--trace"))
            opts.traceFile = value();
        else if (!std::strcmp(argv[i], "--smoke"))
            opts.smoke = true;
        else if (!std::strcmp(argv[i], "--inject-fault"))
            opts.injectFault = true;
        else
            usage("unknown flag");
    }
    if (!(opts.seconds > 0))
        usage("--seconds must be > 0");

    Report r;
    if (opts.workload.rfind("fwd_", 0) == 0)
        r = runForward(opts);
    else if (opts.workload == "serve_burst")
        r = runServe(opts);
    else if (opts.workload == "sim_dse")
        r = runSim(opts);
    else
        usage("unknown workload");

    r.e2e("peak_rss_mb", peakRssMb(), "MB");
    r.isa = vitcod::linalg::engine::isaName(
        vitcod::linalg::engine::KernelEngine().isaLevel());
    std::printf("%s\n", r.json(opts).c_str());
    return 0;
}
