#include "serve/server_stats.h"

#include <algorithm>

#include "common/logging.h"

namespace vitcod::serve {

ServerStats::ServerStats()
    : wallLatency_(registry_.histogram(
          "vitcod_serve_wall_latency_seconds",
          "Request wall latency, submit to completion")),
      queueWait_(registry_.histogram(
          "vitcod_serve_queue_wait_seconds",
          "Request queueing delay, submit to dispatch")),
      simService_(registry_.histogram(
          "vitcod_serve_sim_service_seconds",
          "Simulated per-request device service time")),
      batchSize_(registry_.histogram("vitcod_serve_batch_size",
                                     "Requests per executed batch")),
      queueDepth_(registry_.histogram(
          "vitcod_serve_queue_depth",
          "Scheduler queue depth observed at each submit")),
      admitted_(registry_.counter(
          "vitcod_serve_requests_admitted_total",
          "Requests admitted by InferenceServer::submit")),
      deprioritized_(registry_.counter(
          "vitcod_serve_requests_deprioritized_total",
          "Requests admitted in the SLO grace band")),
      shed_(registry_.counter(
          "vitcod_serve_requests_shed_total",
          "Requests rejected by SLO admission control"))
{
}

void
ServerStats::registerBackend(size_t worker, const std::string &name)
{
    std::lock_guard<std::mutex> g(lock_);
    if (backends_.size() <= worker)
        backends_.resize(worker + 1);
    backends_[worker].name = name;
}

void
ServerStats::recordBatch(size_t worker, size_t batch_size,
                         Seconds sim_seconds, Seconds switch_seconds,
                         bool switched, double wall_seconds,
                         sim::Tick busy_ticks, double energy_joules)
{
    batchSize_.observe(static_cast<double>(batch_size));
    std::lock_guard<std::mutex> g(lock_);
    VITCOD_ASSERT(worker < backends_.size(),
                  "recordBatch for unregistered worker ", worker);
    BackendCounters &b = backends_[worker];
    ++b.batches;
    b.requests += batch_size;
    b.planSwitches += switched ? 1 : 0;
    b.busySimSeconds += sim_seconds;
    b.switchSimSeconds += switch_seconds;
    b.busyTicks = busy_ticks;
    b.busyWallSeconds += wall_seconds;
    b.energyJoules += energy_joules;
    energyJoules_ += energy_joules;
}

void
ServerStats::recordResponse(const InferenceResponse &resp)
{
    wallLatency_.observe(resp.wallLatencySeconds);
    queueWait_.observe(resp.queueSeconds);
    simService_.observe(resp.simSeconds);
}

void
ServerStats::recordPlanBatch(const std::string &plan_key,
                             Seconds predicted_seconds,
                             Seconds measured_seconds,
                             size_t requests)
{
    std::lock_guard<std::mutex> g(lock_);
    PlanCounters &p = plans_[plan_key];
    // Both sides accumulate request-weighted, so the snapshot's
    // per-request means (and their ratio) stay comparable no matter
    // how batches were sized or whether the prediction changed.
    p.predictedSum +=
        predicted_seconds * static_cast<double>(requests);
    p.measuredSum +=
        measured_seconds * static_cast<double>(requests);
    p.requests += requests;
}

void
ServerStats::sampleQueueDepth(size_t depth)
{
    queueDepth_.observe(static_cast<double>(depth));
}

void
ServerStats::recordAdmission(AdmissionDecision d)
{
    switch (d) {
    case AdmissionDecision::Admit: admitted_.inc(); break;
    case AdmissionDecision::Deprioritize:
        admitted_.inc();
        deprioritized_.inc();
        break;
    case AdmissionDecision::Shed: shed_.inc(); break;
    }
}

StatsSnapshot
ServerStats::snapshot(double elapsed_seconds) const
{
    StatsSnapshot s;
    s.metrics = registry_.snapshot();
    const obs::Histogram::Snapshot wall = wallLatency_.snapshot();
    const obs::Histogram::Snapshot queue = queueWait_.snapshot();
    const obs::Histogram::Snapshot sim = simService_.snapshot();
    const obs::Histogram::Snapshot batch = batchSize_.snapshot();
    const obs::Histogram::Snapshot depth = queueDepth_.snapshot();

    s.completed = wall.count;
    s.elapsedSeconds = elapsed_seconds;
    s.throughputRps =
        elapsed_seconds > 0
            ? static_cast<double>(s.completed) / elapsed_seconds
            : 0.0;

    s.admitted = admitted_.value();
    s.deprioritized = deprioritized_.value();
    s.shed = shed_.value();
    s.shedRate = (s.admitted + s.shed) > 0
                     ? static_cast<double>(s.shed) /
                           static_cast<double>(s.admitted + s.shed)
                     : 0.0;

    s.wallP50 = wall.quantile(0.50);
    s.wallP95 = wall.quantile(0.95);
    s.wallP99 = wall.quantile(0.99);
    s.wallMean = wall.mean();
    s.wallMax = wall.max;

    s.queueP50 = queue.quantile(0.50);
    s.queueP95 = queue.quantile(0.95);
    s.queueP99 = queue.quantile(0.99);

    s.simP50 = sim.quantile(0.50);
    s.simP95 = sim.quantile(0.95);
    s.simP99 = sim.quantile(0.99);

    s.meanBatchSize = batch.mean();
    s.meanQueueDepth = depth.mean();
    s.maxQueueDepth = depth.max;

    std::lock_guard<std::mutex> g(lock_);
    s.totalEnergyJoules = energyJoules_;

    for (const auto &b : backends_) {
        StatsSnapshot::Backend out;
        out.name = b.name;
        out.batches = b.batches;
        out.requests = b.requests;
        out.planSwitches = b.planSwitches;
        out.busySimSeconds = b.busySimSeconds;
        out.switchSimSeconds = b.switchSimSeconds;
        out.busyTicks = b.busyTicks;
        out.busyWallSeconds = b.busyWallSeconds;
        out.energyJoules = b.energyJoules;
        if (elapsed_seconds > 0) {
            out.wallUtilization = b.busyWallSeconds / elapsed_seconds;
            out.simUtilization =
                (b.busySimSeconds + b.switchSimSeconds) /
                elapsed_seconds;
        }
        s.backends.push_back(std::move(out));
    }

    for (const auto &[key, p] : plans_) {
        StatsSnapshot::PlanLatency pl;
        pl.key = key;
        pl.requests = p.requests;
        if (p.requests > 0) {
            pl.predictedSeconds =
                p.predictedSum / static_cast<double>(p.requests);
            pl.measuredMeanSeconds =
                p.measuredSum / static_cast<double>(p.requests);
        }
        s.plans.push_back(std::move(pl));
    }
    // The accumulation map is unordered (O(1) per-batch updates);
    // sort here so snapshot/JSON output order is deterministic.
    std::sort(s.plans.begin(), s.plans.end(),
              [](const StatsSnapshot::PlanLatency &a,
                 const StatsSnapshot::PlanLatency &b) {
                  return a.key < b.key;
              });
    return s;
}

} // namespace vitcod::serve
