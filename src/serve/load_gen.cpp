#include "serve/load_gen.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"

namespace vitcod::serve {

namespace {

/** Exponential draw with mean 1/rate; uniform() in [0,1) keeps the
 *  log argument in (0, 1]. */
double
expDraw(Rng &rng, double rate)
{
    return -std::log(1.0 - rng.uniform()) / rate;
}

std::vector<double>
poissonArrivals(const TrafficConfig &cfg, Rng &rng)
{
    std::vector<double> t(cfg.requests);
    double now = 0;
    for (size_t i = 0; i < cfg.requests; ++i) {
        now += expDraw(rng, cfg.ratePerSec);
        t[i] = now;
    }
    return t;
}

std::vector<double>
markovArrivals(const TrafficConfig &cfg, Rng &rng)
{
    VITCOD_ASSERT(cfg.burstRateMultiplier >= 1.0,
                  "burstRateMultiplier must be >= 1");
    VITCOD_ASSERT(cfg.meanBurstSeconds > 0 && cfg.meanIdleSeconds > 0,
                  "state dwell means must be positive");

    // Solve the state rates so the duty-cycle-weighted mean equals
    // ratePerSec: duty * k * rIdle + (1 - duty) * rIdle = mean.
    const double duty = cfg.meanBurstSeconds /
                        (cfg.meanBurstSeconds + cfg.meanIdleSeconds);
    const double idleRate =
        cfg.ratePerSec /
        (duty * cfg.burstRateMultiplier + (1.0 - duty));
    const double burstRate = idleRate * cfg.burstRateMultiplier;

    std::vector<double> t;
    t.reserve(cfg.requests);
    double now = 0;
    bool burst = true; // start hot so short traces still see a burst
    double stateEnd = expDraw(rng, 1.0 / cfg.meanBurstSeconds);
    while (t.size() < cfg.requests) {
        const double rate = burst ? burstRate : idleRate;
        const double next = now + expDraw(rng, rate);
        if (next > stateEnd) {
            // Memorylessness makes truncate-and-resample exact: jump
            // to the state boundary and draw in the new state.
            now = stateEnd;
            burst = !burst;
            stateEnd =
                now + expDraw(rng, 1.0 / (burst
                                              ? cfg.meanBurstSeconds
                                              : cfg.meanIdleSeconds));
            continue;
        }
        now = next;
        t.push_back(now);
    }
    return t;
}

} // namespace

std::vector<double>
generateArrivalTimes(const TrafficConfig &cfg)
{
    VITCOD_ASSERT(cfg.ratePerSec > 0, "arrival rate must be positive");
    Rng rng(cfg.seed);
    switch (cfg.process) {
    case ArrivalProcess::Poisson: return poissonArrivals(cfg, rng);
    case ArrivalProcess::MarkovOnOff: return markovArrivals(cfg, rng);
    }
    return {};
}

TrafficReport
runTraffic(InferenceServer &server, const TrafficConfig &cfg)
{
    VITCOD_ASSERT(!cfg.mix.empty(), "traffic mix is empty");
    VITCOD_ASSERT(cfg.mixWeights.empty() ||
                      cfg.mixWeights.size() == cfg.mix.size(),
                  "mixWeights must match mix");

    if (cfg.warmup)
        server.warmup(cfg.mix);

    std::vector<double> cumWeights;
    if (!cfg.mixWeights.empty()) {
        double acc = 0;
        for (double w : cfg.mixWeights) {
            VITCOD_ASSERT(w >= 0, "negative mix weight");
            acc += w;
            cumWeights.push_back(acc);
        }
        VITCOD_ASSERT(acc > 0, "mix weights sum to zero");
    }

    // Independent stream for the request mix: the arrival-time trace
    // is a pure function of (seed, process knobs) alone.
    Rng mixRng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    auto pickKey = [&]() -> const PlanKey & {
        if (cumWeights.empty())
            return cfg.mix[mixRng.uniformInt(cfg.mix.size())];
        const double u = mixRng.uniform(0.0, cumWeights.back());
        for (size_t i = 0; i < cumWeights.size(); ++i)
            if (u < cumWeights[i])
                return cfg.mix[i];
        return cfg.mix.back();
    };

    const std::vector<double> arrivals = generateArrivalTimes(cfg);

    TrafficReport rep;
    rep.offeredRatePerSec = cfg.ratePerSec;

    const auto start = std::chrono::steady_clock::now();
    auto lastSubmit = start;
    for (size_t i = 0; i < cfg.requests; ++i) {
        if (cfg.openLoop) {
            std::this_thread::sleep_until(
                start +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(arrivals[i])));
        }
        const uint64_t id = server.submit(pickKey());
        ++rep.submitted;
        if (id == 0)
            ++rep.shed;
        lastSubmit = std::chrono::steady_clock::now();
    }
    rep.submitWindowSeconds =
        std::chrono::duration<double>(lastSubmit - start).count();

    server.drain();

    rep.durationSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    rep.offeredRps =
        rep.submitWindowSeconds > 0
            ? static_cast<double>(rep.submitted) /
                  rep.submitWindowSeconds
            : 0.0;
    rep.completionRps =
        rep.durationSeconds > 0
            ? static_cast<double>(rep.submitted - rep.shed) /
                  rep.durationSeconds
            : 0.0;
    rep.shedRate = rep.submitted > 0
                       ? static_cast<double>(rep.shed) /
                             static_cast<double>(rep.submitted)
                       : 0.0;
    return rep;
}

} // namespace vitcod::serve
