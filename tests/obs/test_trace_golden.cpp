/**
 * @file
 * Golden fixture for the trace exporter's JSON: a pinned sequence
 * of spans, flows, counters and instants is recorded against the
 * injectable fake clock (TraceConfig::clockMicros), so the exported
 * Chrome trace_event JSON is bit-deterministic and diffable.
 *
 * Lives in its own test binary: the exporter serializes every
 * recorder the process ever registered, so sharing a binary with
 * multi-threaded tracer tests would leak their thread tracks into
 * this fixture.
 *
 * Regenerate after an intentional format change with
 * `obs_test_trace_golden --update-goldens` (support/golden.h).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace.h"
#include "support/golden.h"

namespace vitcod::obs {
namespace {

constexpr const char *kTraceGolden = "obs_trace.golden.json";

/** Deterministic clock: advances 100 µs per reading. */
int64_t
fakeClock()
{
    static int64_t t = 0;
    return t += 100;
}

std::string
recordFixture()
{
    TraceSession &s = TraceSession::instance();
    s.stop();
    TraceConfig cfg;
    cfg.ringCapacity = 1 << 10;
    cfg.clockMicros = fakeClock;
    s.start(cfg);

    s.setThreadName("golden-main");
    flowStart("request", 1, "serve");
    {
        SpanGuard batch("batch", "serve", "size", 2.0);
        batch.tick(1234);
        flowStep("request", 1, "serve");
        {
            VITCOD_TRACE_SPAN("sddmm", "engine", "nnz", 96.0, "rows",
                              32.0);
        }
        {
            VITCOD_TRACE_SPAN("spmm", "engine", "nnz", 96.0);
        }
    }
    flowEnd("request", 1, "serve");
    counterEvent("queue_depth", 3.0, "serve");
    instant("drain", "serve");

    s.stop();
    std::ostringstream oss;
    s.writeJson(oss);
    return oss.str();
}

TEST(TraceGolden, JsonMatchesCheckedInFixture)
{
    test::expectGolden(recordFixture(), kTraceGolden);
}

} // namespace
} // namespace vitcod::obs

int
main(int argc, char **argv)
{
    return vitcod::test::goldenMain(argc, argv);
}
