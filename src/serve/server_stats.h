/**
 * @file
 * Thread-safe aggregation of serving metrics. Latency is tracked in
 * two currencies — *wall* time (what a client of the serving process
 * observes, including queueing and batching delay) and *simulated*
 * device time (what the modeled hardware would take) — because the
 * runtime serves real traffic through simulated silicon. Per-backend
 * counters additionally keep a sim::Tick busy clock, fed by each
 * worker's tick counter, so utilization can be reported in the
 * device's own clock domain.
 *
 * Per-request numbers (latencies, batch size, queue depth, admission
 * outcomes) are recorded once, into instruments of a per-server
 * obs::MetricsRegistry: memory and snapshot cost are constant in run
 * length, and percentiles are the containing log-bucket's upper
 * bound (at most 2^(1/4)-1 ~ 19% high, never above the max). Counts,
 * means and maxima are exact.
 */

#ifndef VITCOD_SERVE_SERVER_STATS_H
#define VITCOD_SERVE_SERVER_STATS_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/request.h"

namespace vitcod::serve {

/** Point-in-time aggregate view; all fields are plain values. */
struct StatsSnapshot
{
    /** Per-backend (= per-worker) counters. */
    struct Backend
    {
        std::string name;
        uint64_t batches = 0;
        uint64_t requests = 0;
        uint64_t planSwitches = 0;
        Seconds busySimSeconds = 0;   //!< marginal service time
        Seconds switchSimSeconds = 0; //!< weight-reload time
        sim::Tick busyTicks = 0;      //!< busy time in device ticks
        double busyWallSeconds = 0;
        double energyJoules = 0;
        /** busyWallSeconds / elapsed — worker occupancy. */
        double wallUtilization = 0;
        /** (busySim + switchSim) / elapsed — offered sim load. */
        double simUtilization = 0;
    };

    uint64_t completed = 0;
    double elapsedSeconds = 0;
    double throughputRps = 0;

    /**
     * @name Admission-control outcomes
     * Every accepted submit counts as admitted, also when admission
     * control is disabled (its decision is then always Admit); only
     * deprioritized and shed stay zero with it off.
     *  @{ */
    uint64_t admitted = 0;      //!< incl. deprioritized
    uint64_t deprioritized = 0; //!< admitted in the grace band
    uint64_t shed = 0;          //!< turned away by admission control
    /** shed / (admitted + shed); 0 when no decisions were taken. */
    double shedRate = 0;
    /** @} */

    /** Submits refused for a malformed key (!PlanKey::valid());
     *  never admitted, never shed. */
    uint64_t rejected = 0;

    /** @name Wall-clock request latency (submit -> completion)
     *  @{ */
    double wallP50 = 0, wallP95 = 0, wallP99 = 0;
    double wallMean = 0, wallMax = 0;
    /** @} */

    /** @name Wall-clock queueing delay (submit -> dispatch)
     *  @{ */
    double queueP50 = 0, queueP95 = 0, queueP99 = 0;
    /** @} */

    /** @name Simulated per-request device time
     *  @{ */
    double simP50 = 0, simP95 = 0, simP99 = 0;
    /** @} */

    double meanBatchSize = 0;
    double meanQueueDepth = 0;
    double maxQueueDepth = 0;
    double totalEnergyJoules = 0;

    std::vector<Backend> backends;

    /**
     * Per-plan predicted-vs-measured latency. `predicted` is the
     * PlanCache's schedule-derived ViTCoD simulation of one
     * inference; `measured` is what the serving backends actually
     * reported per request: for the ViTCoD backend the plan's own
     * simEstimate (ratio exactly 1), for the other simulated devices
     * their own model's price of the same plan, and wall time for
     * real-execution backends (ModelExec). The ratio is the honesty
     * check the shared Schedule IR exists to enable.
     */
    struct PlanLatency
    {
        std::string key;
        /**
         * Request-weighted mean of the per-request predictions the
         * plan served under — same normalization as
         * measuredMeanSeconds, so ratio() compares like with like
         * even if the plan recompiles mid-run with a different
         * estimate.
         */
        Seconds predictedSeconds = 0;
        /** Request-weighted mean of measured per-request service. */
        Seconds measuredMeanSeconds = 0;
        uint64_t requests = 0;

        /** measured / predicted (0 when predicted is 0). */
        double ratio() const
        {
            return predictedSeconds > 0
                       ? measuredMeanSeconds / predictedSeconds
                       : 0.0;
        }
    };

    /**
     * Sorted by plan key at snapshot time (the accumulation map is
     * unordered for O(1) hot-path updates), so JSON/stats output
     * order is deterministic run over run.
     */
    std::vector<PlanLatency> plans;

    /**
     * This server's vitcod_serve_* instruments at snapshot time (the
     * histograms and counters behind the latency, batch, queue-depth
     * and admission fields above), so a periodic StatsSnapshot poll
     * doubles as a metrics scrape.
     */
    obs::MetricsSnapshot metrics;
};

/** Shared metrics sink for the whole server. */
class ServerStats
{
  public:
    ServerStats();

    /** Declare worker @p worker's backend; call before start. */
    void registerBackend(size_t worker, const std::string &name);

    /** Record one executed batch on @p worker. */
    void recordBatch(size_t worker, size_t batch_size,
                     Seconds sim_seconds, Seconds switch_seconds,
                     bool switched, double wall_seconds,
                     sim::Tick busy_ticks, double energy_joules);

    /** Record one completed request (lock-free). */
    void recordResponse(const InferenceResponse &resp);

    /**
     * Record one executed batch against its plan's schedule-derived
     * prediction: @p predicted_seconds is the CompiledPlan's
     * simulated per-request latency, @p measured_seconds the
     * backend's reported per-request service time, @p requests the
     * batch size.
     */
    void recordPlanBatch(const std::string &plan_key,
                         Seconds predicted_seconds,
                         Seconds measured_seconds, size_t requests);

    /** Record an observation of the scheduler queue depth (lock-free). */
    void sampleQueueDepth(size_t depth);

    /** Record one admission decision (lock-free). */
    void recordAdmission(AdmissionDecision d);

    /** Record one submit refused for a malformed key (lock-free). */
    void recordRejected() { rejected_.inc(); }

    /** Aggregate view after @p elapsed_seconds of serving. */
    StatsSnapshot snapshot(double elapsed_seconds) const;

  private:
    struct BackendCounters
    {
        std::string name;
        uint64_t batches = 0;
        uint64_t requests = 0;
        uint64_t planSwitches = 0;
        Seconds busySimSeconds = 0;
        Seconds switchSimSeconds = 0;
        sim::Tick busyTicks = 0;
        double busyWallSeconds = 0;
        double energyJoules = 0;
    };

    struct PlanCounters
    {
        Seconds predictedSum = 0; //!< sum of per-request predictions
        Seconds measuredSum = 0;  //!< sum of per-request measurements
        uint64_t requests = 0;
    };

    // Declared before the instrument references bound to it.
    obs::MetricsRegistry registry_;
    obs::Histogram &wallLatency_;
    obs::Histogram &queueWait_;
    obs::Histogram &simService_;
    obs::Histogram &batchSize_;
    obs::Histogram &queueDepth_;
    obs::Counter &admitted_;
    obs::Counter &deprioritized_;
    obs::Counter &shed_;
    obs::Counter &rejected_;

    mutable std::mutex lock_;
    std::vector<BackendCounters> backends_;
    std::unordered_map<std::string, PlanCounters> plans_;
    double energyJoules_ = 0;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_SERVER_STATS_H
