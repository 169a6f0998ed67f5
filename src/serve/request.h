/**
 * @file
 * Request/response currency of the serving runtime. A request names
 * the *task* it wants served — (model, sparsity, AE, scope) — not a
 * plan object: plans are deterministic in that key, so the server
 * resolves them through its PlanCache and amortizes the one-time
 * compilation cost (paper Sec. V-B3) across all traffic for the
 * task. Every request of a task costs the same, so a request
 * carries no priority or size hint: the scheduler batches by plan
 * alone.
 */

#ifndef VITCOD_SERVE_REQUEST_H
#define VITCOD_SERVE_REQUEST_H

#include <cstdint>
#include <string>

#include "common/units.h"

namespace vitcod::serve {

/**
 * Identity of a servable task. Two requests with equal keys share
 * the same ModelPlan and CompiledPlan.
 */
struct PlanKey
{
    std::string model = "DeiT-Small"; //!< model::modelByName() name
    double sparsity = 0.9;        //!< attention-mask target sparsity
    bool useAe = true;            //!< auto-encoder compression on?
    bool endToEnd = false;        //!< full inference vs core attention

    bool operator==(const PlanKey &o) const = default;

    /** Canonical string form; used as the cache and stats key. */
    std::string str() const;

    /**
     * Whether a plan can be built for this key: sparsity in [0, 1]
     * (not NaN) and a model model::findModel() knows.
     */
    bool valid() const;
};

/** One inference request admitted to the server. */
struct InferenceRequest
{
    uint64_t id = 0;
    PlanKey key;
    double submitSeconds = 0; //!< server-epoch wall time of admission

    /**
     * The plan's schedule-derived per-request simulated latency
     * (CompiledPlan::simEstimate) the request was admitted under.
     * The admission controller charges this to its backlog at
     * admit time and releases exactly the same value at
     * completion, so the backlog never drifts even if the plan
     * recompiles mid-flight with a different estimate.
     */
    double predictedServiceSeconds = 0;

    /**
     * True when admission admitted the request inside its grace
     * band (predicted exit past the SLO). Counted, then served like
     * any other request.
     */
    bool deprioritized = false;
};

/** Completion record for one request. */
struct InferenceResponse
{
    uint64_t id = 0;
    std::string backend;      //!< worker backend that served it
    size_t batchSize = 0;     //!< size of the batch it rode in

    /** Server-epoch wall time spent queued before dispatch. */
    double queueSeconds = 0;
    /** Server-epoch wall time from submit to completion. */
    double wallLatencySeconds = 0;
    /** Simulated device time for this request (marginal, per-item). */
    Seconds simSeconds = 0;
    /** Simulated device time of the whole batch (incl. plan switch). */
    Seconds simBatchSeconds = 0;
    /** Simulated energy of this request's share of the batch. */
    double energyJoules = 0;
    /** Echo of InferenceRequest::predictedServiceSeconds. */
    double predictedServiceSeconds = 0;
    /** Echo of InferenceRequest::deprioritized. */
    bool deprioritized = false;
};

} // namespace vitcod::serve

#endif // VITCOD_SERVE_REQUEST_H
