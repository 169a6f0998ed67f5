/**
 * @file
 * Open-loop traffic generation against an InferenceServer. Two
 * arrival processes, both seeded and deterministic (a (seed, config)
 * pair always offers the same arrival-time trace):
 *
 *  - Poisson: exponential inter-arrivals at a fixed mean rate — the
 *    classic memoryless baseline;
 *  - MarkovOnOff: a two-state Markov-modulated Poisson process.
 *    The generator alternates between a *burst* state and an *idle*
 *    state (exponentially distributed dwell times); within each
 *    state arrivals are Poisson at that state's rate. The state
 *    rates are solved so the long-run mean equals ratePerSec, which
 *    keeps sweeps comparable across processes while the trace is
 *    far burstier than Poisson (inter-arrival CV^2 > 1).
 *
 * Generation is open-loop: a saturated server builds queue (or
 * sheds, with admission control) instead of back-pressuring the
 * generator — which is what exposes the throughput/latency knee and
 * the shed behavior the serving bench sweeps. The request mix draws
 * plan keys (optionally weighted) from an independent deterministic
 * stream, so changing the mix never perturbs the arrival times.
 */

#ifndef VITCOD_SERVE_LOAD_GEN_H
#define VITCOD_SERVE_LOAD_GEN_H

#include <cstdint>
#include <vector>

#include "serve/request.h"
#include "serve/server.h"

namespace vitcod::serve {

/** Arrival-time process family. */
enum class ArrivalProcess { Poisson, MarkovOnOff };

/** Offered traffic description. */
struct TrafficConfig
{
    ArrivalProcess process = ArrivalProcess::Poisson;

    /** Long-run mean arrival rate, for every process family. */
    double ratePerSec = 1000.0;
    size_t requests = 1000; //!< total arrivals

    /** @name MarkovOnOff knobs
     *  burst-state rate = burstRateMultiplier x idle-state rate;
     *  dwell times are exponential with the given means. The two
     *  state rates are derived so the duty-cycle-weighted mean is
     *  exactly ratePerSec.
     *  @{ */
    double burstRateMultiplier = 8.0;
    double meanBurstSeconds = 0.05;
    double meanIdleSeconds = 0.20;
    /** @} */

    /** Plan mix; requests draw from it (uniform when weights empty). */
    std::vector<PlanKey> mix = {PlanKey{}};
    std::vector<double> mixWeights;

    uint64_t seed = 1;

    /** Pre-compile the mix before offering traffic. */
    bool warmup = true;

    /**
     * Sleep to the generated arrival times (true), or submit
     * back-to-back as fast as possible (false; a burst/stress mode).
     */
    bool openLoop = true;
};

/**
 * The deterministic arrival-time trace of @p cfg: cfg.requests
 * nondecreasing seconds offsets from the start of generation.
 * runTraffic() submits on exactly this trace; exposed separately so
 * tests and simulations can replay the same trace without a server.
 */
std::vector<double> generateArrivalTimes(const TrafficConfig &cfg);

/** What the generator actually offered/achieved. */
struct TrafficReport
{
    size_t submitted = 0; //!< offered to the server (includes shed)
    size_t shed = 0;      //!< rejected by admission (submit() == 0)

    double offeredRatePerSec = 0; //!< configured mean rate

    /**
     * Wall time of the submission window alone (first to last
     * submit). Offered load lives here: dividing by the full
     * duration (which includes drain time after the last arrival)
     * would understate it.
     */
    double submitWindowSeconds = 0;
    /** submitted / submitWindowSeconds — achieved offered rate. */
    double offeredRps = 0;

    /** First submit -> all admitted completed (submit + drain). */
    double durationSeconds = 0;
    /** (submitted - shed) / durationSeconds — completion rate. */
    double completionRps = 0;

    /** shed / submitted (0 when nothing was offered). */
    double shedRate = 0;
};

/**
 * Offer @p cfg's traffic to @p server, block until all *admitted*
 * requests have completed (server.drain()), and report. The server
 * keeps running.
 */
TrafficReport runTraffic(InferenceServer &server,
                         const TrafficConfig &cfg);

} // namespace vitcod::serve

#endif // VITCOD_SERVE_LOAD_GEN_H
