/**
 * @file
 * SLO-aware admission control. The serving runtime is open-loop:
 * clients offer traffic at whatever rate they like, so under
 * overload the only choice is *where* the excess latency goes — into
 * an unbounded queue (every request eventually violates its SLO) or
 * into explicit shed decisions at the door (admitted requests keep
 * their latency bound, rejected ones fail fast and can be retried
 * elsewhere). This controller implements the second option.
 *
 * The predictor is the Schedule IR's own cost model: every
 * CompiledPlan carries `simEstimate`, the schedule-priced simulated
 * latency of one inference. The controller keeps a *backlog* — the
 * sum of the predicted service seconds of every admitted request
 * that has not yet completed — and predicts a new request's
 * queue-exit latency as
 *
 *     predictedExit = backlog / workers + service
 *
 * i.e. the queued work divided across the worker pool, plus the
 * request's own service time. The decision ladder against the
 * request's SLO (per-plan override, else the default):
 *
 *     predictedExit <= slo                  -> Admit
 *     predictedExit <= slo * shedMultiplier -> Deprioritize
 *     otherwise                             -> Shed
 *
 * Deprioritized requests are admitted and counted
 * (vitcod_serve_requests_deprioritized_total) but served like any
 * other request: continuous batching has no per-request order to
 * demote them in, so the grace band is an observable early warning
 * that the pool is running past its SLO. Shed requests never enter
 * the queue. All quantities are in the simEstimate clock
 * domain (simulated device seconds); when the server throttles
 * workers to real time (ServerConfig::realtimeFactor) the same
 * numbers describe wall time up to that factor. See
 * docs/SERVING.md.
 *
 * Thread safety: decide() and release() take an internal lock;
 * admission is on the submit path and release on the completion
 * path, so both are cross-thread.
 */

#ifndef VITCOD_SERVE_ADMISSION_H
#define VITCOD_SERVE_ADMISSION_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace vitcod::serve {

/** Outcome of one admission decision. */
enum class AdmissionDecision { Admit, Deprioritize, Shed };

/** Printable decision name. */
const char *admissionDecisionName(AdmissionDecision d);

/** Admission policy knobs. */
struct AdmissionConfig
{
    /** Off by default: every request is admitted unchanged. */
    bool enabled = false;

    /**
     * Latency SLO applied to plans without a planSloSeconds entry,
     * in the simEstimate clock domain. <= 0 admits unconditionally
     * (backlog is still tracked).
     */
    double defaultSloSeconds = 0.0;

    /**
     * Per-plan (or per-tenant: key by PlanKey::str()) SLO override.
     * Lets latency-critical tasks shed earlier than batch traffic
     * sharing the same pool.
     */
    std::unordered_map<std::string, double> planSloSeconds;

    /**
     * Grace band: requests predicted to exit within
     * [slo, slo * shedMultiplier] are admitted and counted as
     * deprioritized instead of shed. 1.0 disables the band
     * (admit-or-shed).
     */
    double shedMultiplier = 2.0;
};

/**
 * Tracks predicted in-flight work and decides admit / deprioritize /
 * shed per request. One instance per server, shared by all submit
 * threads.
 */
class AdmissionController
{
  public:
    AdmissionController() = default;

    /** @param workers Pool size the backlog is divided across. */
    AdmissionController(AdmissionConfig cfg, size_t workers);

    /**
     * Decide one request of plan @p plan_key whose predicted
     * per-request service time is @p service_seconds. Admit and
     * Deprioritize charge the backlog; Shed does not.
     */
    AdmissionDecision decide(const std::string &plan_key,
                             double service_seconds);

    /**
     * Retire one admitted request's predicted service time from the
     * backlog; call exactly once per completion with the value the
     * request was admitted under (InferenceRequest /
     * InferenceResponse::predictedServiceSeconds).
     */
    void release(double service_seconds);

    /** Predicted in-flight work, in simEstimate seconds. */
    double backlogSeconds() const;

    /** Admitted-but-not-completed request count. */
    uint64_t inflight() const;

    /** SLO applied to @p plan_key (override, else default). */
    double sloFor(const std::string &plan_key) const;

    const AdmissionConfig &config() const { return cfg_; }

  private:
    AdmissionConfig cfg_;
    double workers_ = 1.0;

    mutable std::mutex lock_;
    double backlog_ = 0.0;
    uint64_t inflight_ = 0;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_ADMISSION_H
