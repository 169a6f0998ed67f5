#include "serve/server.h"

#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace vitcod::serve {

namespace {

SchedulerConfig
withClock(SchedulerConfig sc, std::function<double()> clock)
{
    sc.clock = std::move(clock);
    return sc;
}

/** Resolve the tuned-config hook before anything consumes cfg.hw. */
ServerConfig
withTunedHw(ServerConfig cfg)
{
    if (!cfg.tunedFrontierPath.empty())
        cfg.hw = tunedHwConfig(cfg.tunedFrontierPath, cfg.hw);
    return cfg;
}

} // namespace

InferenceServer::InferenceServer(
    ServerConfig cfg,
    std::function<void(const InferenceResponse &)> on_response)
    : cfg_(withTunedHw(std::move(cfg))),
      epoch_(std::chrono::steady_clock::now()),
      cache_(cfg_.hw, cfg_.planCacheCapacity),
      scheduler_(withClock(cfg_.scheduler,
                           [this] { return nowSeconds(); })),
      admission_(cfg_.admission, cfg_.backends.size()),
      userCallback_(std::move(on_response))
{
    VITCOD_ASSERT(!cfg_.backends.empty(),
                  "server needs >= 1 backend spec");
    std::vector<std::unique_ptr<ServeBackend>> backends;
    backends.reserve(cfg_.backends.size());
    for (const auto &spec : cfg_.backends)
        backends.push_back(makeServeBackend(spec, cfg_.hw));

    pool_ = std::make_unique<WorkerPool>(
        std::move(backends), scheduler_, cache_, stats_,
        [this](const InferenceResponse &r) { onComplete(r); },
        [this] { return nowSeconds(); }, cfg_.realtimeFactor);
    pool_->start();

    if (!cfg_.traceOutPath.empty())
        obs::TraceSession::instance().start();
}

InferenceServer::~InferenceServer()
{
    shutdown();
}

void
InferenceServer::warmup(const std::vector<PlanKey> &keys)
{
    for (const PlanKey &k : keys)
        cache_.get(k);
}

uint64_t
InferenceServer::submit(const PlanKey &key)
{
    VITCOD_ASSERT(!scheduler_.stopped(),
                  "submit() after shutdown()");
    VITCOD_TRACE_SPAN("submit", "serve");
    // A key no plan can be built from is refused before the cache
    // sees it: building it would abort the process.
    if (!key.valid()) {
        stats_.recordRejected();
        return 0;
    }
    // Admission-time plan resolution: compiles on first sight of the
    // task, shares the cached plan on every request after. The
    // plan's schedule-priced simEstimate is also the admission
    // controller's service-time predictor.
    const auto cp = cache_.get(key);
    const double service = cp->simEstimate.seconds;

    const AdmissionDecision decision =
        admission_.decide(key.str(), service);
    stats_.recordAdmission(decision);
    if (decision == AdmissionDecision::Shed)
        return 0;

    InferenceRequest req;
    req.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    req.key = key;
    req.predictedServiceSeconds = service;
    req.deprioritized =
        decision == AdmissionDecision::Deprioritize;

    const uint64_t id = req.id;
    submitted_.fetch_add(1, std::memory_order_acq_rel);
    // Flow arrow tail: the matching steps/head are emitted on the
    // worker track that ends up executing this request.
    obs::flowStart("request", id, "serve");
    scheduler_.submit(std::move(req));
    const size_t depth = scheduler_.depth();
    stats_.sampleQueueDepth(depth);
    obs::counterEvent("queue_depth", static_cast<double>(depth),
                      "serve");
    return id;
}

void
InferenceServer::onComplete(const InferenceResponse &resp)
{
    // Retire the request's predicted service time from the
    // admission backlog before anything else: the next submit's
    // queue-exit prediction must see the freed capacity.
    admission_.release(resp.predictedServiceSeconds);
    if (userCallback_)
        userCallback_(resp);
    {
        std::lock_guard<std::mutex> g(doneLock_);
        completed_.fetch_add(1, std::memory_order_acq_rel);
    }
    doneCv_.notify_all();
}

void
InferenceServer::drain()
{
    std::unique_lock<std::mutex> g(doneLock_);
    doneCv_.wait(g, [this] {
        return completed_.load(std::memory_order_acquire) >=
               submitted_.load(std::memory_order_acquire);
    });
}

void
InferenceServer::shutdown()
{
    scheduler_.stop();
    if (pool_)
        pool_->join();
    if (!cfg_.traceOutPath.empty() && !traceExported_) {
        traceExported_ = true;
        obs::TraceSession &session = obs::TraceSession::instance();
        session.stop();
        const obs::TraceExportStats ts =
            session.writeJsonFile(cfg_.traceOutPath);
        inform("trace: wrote ", ts.events, " events (", ts.dropped,
               " dropped, ", ts.threads, " tracks) to ",
               cfg_.traceOutPath);
    }
}

double
InferenceServer::nowSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

StatsSnapshot
InferenceServer::snapshot() const
{
    return stats_.snapshot(nowSeconds());
}

} // namespace vitcod::serve
