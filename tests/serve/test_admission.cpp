/**
 * @file
 * AdmissionController units (decision ladder, backlog accounting,
 * per-plan SLOs) plus the headline acceptance test of the SLO
 * serving story: on the *same* deterministic bursty trace at 2x the
 * pool's capacity, a server with admission off grows its queue
 * without bound while the SLO-admission server sheds the excess at
 * the door and keeps admitted queue-exit latency within the SLO
 * band. The overload scenario is replayed as a discrete-event
 * simulation over the real BatchScheduler + AdmissionController with
 * an injected clock, so the result is exact and bit-reproducible.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "serve/admission.h"
#include "serve/batch_scheduler.h"
#include "serve/load_gen.h"

namespace vitcod::serve {
namespace {

AdmissionConfig
ladderCfg(double slo, double mult = 2.0)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.defaultSloSeconds = slo;
    cfg.shedMultiplier = mult;
    return cfg;
}

TEST(Admission, DisabledAdmitsEverythingButTracksBacklog)
{
    AdmissionController ac(AdmissionConfig{}, /*workers=*/1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(ac.decide("p", 1.0), AdmissionDecision::Admit);
    EXPECT_DOUBLE_EQ(ac.backlogSeconds(), 100.0);
    EXPECT_EQ(ac.inflight(), 100u);
}

TEST(Admission, LadderAdmitDeprioritizeShed)
{
    // workers=1, service=0.25 (exact in binary), slo=1, band to 2:
    // predicted exit after k admitted = 0.25 * (k + 1).
    AdmissionController ac(ladderCfg(1.0), 1);
    for (int i = 0; i < 4; ++i) // exits 0.25 .. 1.0
        EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Admit);
    for (int i = 0; i < 4; ++i) // exits 1.25 .. 2.0
        EXPECT_EQ(ac.decide("p", 0.25),
                  AdmissionDecision::Deprioritize);
    // exit 2.25 > slo * mult; shed does not charge the backlog, so
    // it keeps shedding.
    EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Shed);
    EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Shed);
    EXPECT_DOUBLE_EQ(ac.backlogSeconds(), 2.0);
    EXPECT_EQ(ac.inflight(), 8u);
}

TEST(Admission, ReleaseRestoresAdmission)
{
    AdmissionController ac(ladderCfg(1.0, /*mult=*/1.0), 1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Admit);
    EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Shed);

    ac.release(0.25); // one completion frees one slot exactly
    EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Admit);
    EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Shed);
    EXPECT_EQ(ac.inflight(), 4u); // 4 admits + 1 release + 1 admit
}

TEST(Admission, BacklogIsDividedAcrossWorkers)
{
    // Same backlog, 4 workers: predicted exit = backlog/4 + service.
    AdmissionController ac(ladderCfg(1.0, 1.0), 4);
    for (int i = 0; i < 13; ++i) // exit = 0.25*i/4 + 0.25 <= 1
        EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Admit)
            << "request " << i;
    EXPECT_EQ(ac.decide("p", 0.25), AdmissionDecision::Shed);
}

TEST(Admission, PerPlanSloOverridesDefault)
{
    AdmissionConfig cfg = ladderCfg(10.0, 1.0);
    cfg.planSloSeconds["gold"] = 0.5;
    AdmissionController ac(cfg, 1);
    EXPECT_DOUBLE_EQ(ac.sloFor("gold"), 0.5);
    EXPECT_DOUBLE_EQ(ac.sloFor("anything-else"), 10.0);

    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ac.decide("bulk", 0.25), AdmissionDecision::Admit);
    // backlog=1.0: bulk (slo 10) still admits, gold (slo 0.5) sheds.
    EXPECT_EQ(ac.decide("gold", 0.25), AdmissionDecision::Shed);
    EXPECT_EQ(ac.decide("bulk", 0.25), AdmissionDecision::Admit);
}

TEST(Admission, NonPositiveSloAdmitsUnconditionally)
{
    AdmissionController ac(ladderCfg(0.0), 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(ac.decide("p", 1.0), AdmissionDecision::Admit);
    EXPECT_DOUBLE_EQ(ac.backlogSeconds(), 1000.0);
}

TEST(Admission, ReleaseClampsAtZero)
{
    AdmissionController ac(AdmissionConfig{}, 1);
    ac.decide("p", 0.1);
    ac.release(0.1);
    ac.release(0.1); // spurious; must not go negative
    EXPECT_GE(ac.backlogSeconds(), 0.0);
}

TEST(Admission, DecisionNames)
{
    EXPECT_STREQ(admissionDecisionName(AdmissionDecision::Admit),
                 "admit");
    EXPECT_STREQ(
        admissionDecisionName(AdmissionDecision::Deprioritize),
        "deprioritize");
    EXPECT_STREQ(admissionDecisionName(AdmissionDecision::Shed),
                 "shed");
}

// ---------------------------------------------------------------------
// Acceptance: bursty 2x overload, admission off ("open") vs SLO
// admission, replayed as a deterministic discrete-event simulation.
// ---------------------------------------------------------------------

constexpr double kService = 1e-3; //!< per-request service seconds
constexpr double kSlo = 20e-3;    //!< 20 service times
constexpr double kShedMult = 2.0;
constexpr size_t kMaxBatch = 8;

struct SimOutcome
{
    uint64_t admitted = 0;
    uint64_t deprioritized = 0;
    uint64_t shed = 0;
    size_t maxDepth = 0;
    size_t served = 0;  //!< requests that left through a batch
    double exitP99 = 0; //!< p99 queue-exit latency of admitted
    double exitSum = 0; //!< determinism fingerprint

    bool operator==(const SimOutcome &o) const
    {
        return admitted == o.admitted &&
               deprioritized == o.deprioritized && shed == o.shed &&
               maxDepth == o.maxDepth && served == o.served &&
               exitP99 == o.exitP99 && exitSum == o.exitSum;
    }
};

/**
 * Replay @p arrivals through the real scheduler (+ optional
 * admission) with one simulated worker of fixed per-request service
 * time. Single-threaded and clock-injected: every quantity is a pure
 * function of the trace.
 */
SimOutcome
replayOverload(const std::vector<double> &arrivals, bool useSlo)
{
    auto now = std::make_shared<double>(0.0);
    SchedulerConfig sc;
    sc.maxBatch = kMaxBatch;
    sc.maxWaitSeconds = 5e-3;
    sc.clock = [now] { return *now; };
    BatchScheduler sched(sc);

    AdmissionController admission(
        useSlo ? ladderCfg(kSlo, kShedMult) : AdmissionConfig{}, 1);

    PlanKey key;
    key.model = "M";

    SimOutcome out;
    std::vector<double> exits;
    double workerFree = 0;
    std::deque<double> completions; // nondecreasing (single worker)

    auto serveOne = [&]() -> bool {
        *now = workerFree;
        auto b = sched.nextBatch();
        if (!b)
            return false;
        // All members arrived at or before "now"; an idle worker
        // starts at the latest member arrival, a busy one when it
        // freed.
        double start = workerFree;
        for (const auto &r : b->requests)
            start = std::max(start, r.submitSeconds);
        const double done =
            start +
            static_cast<double>(b->requests.size()) * kService;
        for (const auto &r : b->requests) {
            exits.push_back(done - r.submitSeconds);
            completions.push_back(done);
        }
        workerFree = done;
        return true;
    };

    for (const double t : arrivals) {
        while (workerFree <= t && serveOne())
            ;
        while (!completions.empty() && completions.front() <= t) {
            admission.release(kService);
            completions.pop_front();
        }
        *now = t;
        const AdmissionDecision d =
            admission.decide(key.str(), kService);
        switch (d) {
        case AdmissionDecision::Shed: ++out.shed; continue;
        case AdmissionDecision::Deprioritize:
            ++out.deprioritized;
            [[fallthrough]];
        case AdmissionDecision::Admit: ++out.admitted; break;
        }
        InferenceRequest req;
        req.id = out.admitted;
        req.key = key;
        sched.submit(std::move(req));
        out.maxDepth = std::max(out.maxDepth, sched.depth());
    }
    while (serveOne()) // drain
        ;

    out.served = exits.size();
    for (double e : exits)
        out.exitSum += e;
    if (!exits.empty()) {
        const size_t i99 = (exits.size() * 99) / 100;
        std::nth_element(exits.begin(), exits.begin() + i99,
                         exits.end());
        out.exitP99 = exits[i99];
    }
    return out;
}

TEST(AdmissionOverload, SloShedsAndBoundsLatencyWhereOpenQueueDiverges)
{
    // 2x the worker's 1/kService capacity, bursty: the same trace
    // shape the soak harness offers (bench_serving --soak), scaled
    // down.
    TrafficConfig cfg;
    cfg.process = ArrivalProcess::MarkovOnOff;
    cfg.ratePerSec = 2.0 / kService;
    cfg.burstRateMultiplier = 8.0;
    cfg.meanBurstSeconds = 0.05;
    cfg.meanIdleSeconds = 0.20;
    cfg.requests = 20000;
    cfg.seed = 42;
    const std::vector<double> arrivals = generateArrivalTimes(cfg);
    ASSERT_EQ(arrivals.size(), cfg.requests);

    const SimOutcome open = replayOverload(arrivals, false);
    const SimOutcome slo = replayOverload(arrivals, true);
    EXPECT_EQ(open.served, open.admitted);
    EXPECT_EQ(slo.served, slo.admitted);

    // With admission off everything is admitted and the queue
    // diverges: ~half the offered work is still waiting when
    // arrivals stop.
    EXPECT_EQ(open.shed, 0u);
    EXPECT_EQ(open.admitted, cfg.requests);
    EXPECT_GT(open.maxDepth, 2000u);

    // SLO admission sheds a meaningful fraction at the door...
    EXPECT_GT(slo.shed, 0u);
    const double shedRate =
        static_cast<double>(slo.shed) /
        static_cast<double>(slo.admitted + slo.shed);
    EXPECT_GT(shedRate, 0.15);
    EXPECT_LT(shedRate, 0.70);

    // ...which keeps the queue bounded by the SLO band (about
    // slo * mult / service predicted-exit requests plus batching
    // slack), orders of magnitude below open...
    EXPECT_LE(slo.maxDepth, 100u);
    EXPECT_GT(open.maxDepth, 10 * slo.maxDepth);

    // ...and admitted queue-exit latency inside the grace band
    // (small overshoot allowed for prediction error); open's p99 is
    // the divergent drain tail.
    EXPECT_LE(slo.exitP99, kSlo * kShedMult * 1.5);
    EXPECT_GT(open.exitP99, 10 * kSlo);
}

TEST(AdmissionOverload, ReplayIsDeterministic)
{
    TrafficConfig cfg;
    cfg.process = ArrivalProcess::MarkovOnOff;
    cfg.ratePerSec = 2.0 / kService;
    cfg.requests = 5000;
    cfg.seed = 7;
    const std::vector<double> a1 = generateArrivalTimes(cfg);
    const std::vector<double> a2 = generateArrivalTimes(cfg);
    ASSERT_EQ(a1, a2);

    const SimOutcome r1 = replayOverload(a1, true);
    const SimOutcome r2 = replayOverload(a2, true);
    EXPECT_TRUE(r1 == r2);
    EXPECT_GT(r1.shed, 0u);
}

} // namespace
} // namespace vitcod::serve
