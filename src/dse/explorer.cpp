#include "dse/explorer.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "core/pipeline.h"
#include "core/schedule/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vitcod::dse {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Memo key of one (workload, schedule-relevant params) pair. */
std::string
scheduleKey(size_t w, const core::schedule::HardwareParams &p)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << w << '|' << p.macLines << '|' << p.macsPerLine << '|'
        << p.elemBytes << '|' << p.indexBytes << '|' << p.qkvBufBytes
        << '|' << p.sBufferBytes << '|' << p.aeLines << '|'
        << p.aeDecodeRate << '|' << p.softmaxLanesPerEngine << '|'
        << p.colOverheadCycles << '|' << p.reconfigCycles << '|'
        << p.denseEff << '|' << p.gemmEff << '|' << p.twoPronged
        << '|' << p.enableAeEngines << '|' << p.dynamicMaskPrediction
        << '|' << p.predictionCostFactor << '|' << p.sparserLineFrac;
    return oss.str();
}

} // namespace

struct Explorer::Workload
{
    WorkloadSpec spec;
    core::ModelPlan plan;
};

Explorer::Explorer(std::vector<WorkloadSpec> workloads,
                   HwConfigSpace space, ExplorerConfig cfg)
    : specs_(std::move(workloads)), space_(std::move(space)),
      cfg_(cfg)
{
    VITCOD_ASSERT(!specs_.empty(), "DSE needs >= 1 workload");
    for (const WorkloadSpec &w : specs_)
        VITCOD_ASSERT(w.weight > 0.0, "workload weight must be > 0");
    space_.validate();

    if (cfg_.threads > 0) {
        ownPool_ =
            std::make_unique<linalg::engine::ThreadPool>(cfg_.threads);
        pool_ = ownPool_.get();
    } else {
        pool_ = &linalg::engine::ThreadPool::shared();
    }

    // The one-time algorithm cost of the bundle: each workload's
    // plan (mask generation + AE fitting) is built exactly once and
    // shared by every priced configuration.
    workloads_.resize(specs_.size());
    parallelOver(specs_.size(), [&](size_t i) {
        workloads_[i].spec = specs_[i];
        workloads_[i].plan = core::buildModelPlan(
            model::modelByName(specs_[i].model),
            core::makePipelineConfig(specs_[i].sparsity,
                                     specs_[i].useAe));
    });

    baseline_ = evaluateConfig(space_.base);
}

Explorer::~Explorer() = default;

std::shared_ptr<const core::schedule::ModelSchedule>
Explorer::scheduleFor(size_t w, const accel::ViTCoDConfig &cfg) const
{
    const core::schedule::HardwareParams params =
        accel::scheduleParams(cfg);
    const std::string key = scheduleKey(w, params);
    {
        std::lock_guard<std::mutex> g(schedLock_);
        auto it = schedules_.find(key);
        if (it != schedules_.end())
            return it->second;
    }
    // Built outside the lock: the schedule is a pure function of
    // (plan, params), so a concurrent duplicate build wastes a
    // little work but cannot diverge; emplace keeps the first.
    auto sched =
        std::make_shared<const core::schedule::ModelSchedule>(
            core::schedule::ScheduleBuilder(
                {.hw = params, .buildLayouts = false})
                .build(workloads_[w].plan,
                       workloads_[w].spec.endToEnd));
    std::lock_guard<std::mutex> g(schedLock_);
    return schedules_.emplace(key, std::move(sched)).first->second;
}

Objectives
Explorer::evaluateConfig(const accel::ViTCoDConfig &cfg) const
{
    VITCOD_TRACE_SPAN("evaluate", "dse", "workloads",
                      double(workloads_.size()));
    obs::metrics()
        .counter("vitcod_dse_evaluations_total",
                 "Accelerator configurations priced by the explorer")
        .inc();
    const accel::ViTCoDAccelerator acc(cfg);
    Objectives o;
    o.areaMm2 = areaProxyMm2(cfg);
    for (size_t w = 0; w < workloads_.size(); ++w) {
        const accel::RunStats rs =
            acc.runSchedule(*scheduleFor(w, cfg), cfg_.simMode);
        o.latencySeconds += workloads_[w].spec.weight * rs.seconds;
        o.energyJoules +=
            workloads_[w].spec.weight * rs.energyJoules();
    }
    return o;
}

DsePoint
Explorer::evaluateIndex(size_t index) const
{
    VITCOD_ASSERT(space_.valid(index),
                  "evaluateIndex on invalid point ", index);
    const accel::ViTCoDConfig cfg = space_.configAt(index);
    DsePoint p;
    p.index = index;
    p.hw = HwPoint::of(cfg);
    p.obj = evaluateConfig(cfg);
    return p;
}

void
Explorer::parallelOver(size_t n,
                       const std::function<void(size_t)> &fn) const
{
    pool_->parallelFor(0, n, /*grain=*/1,
                       [&](size_t begin, size_t end) {
                           for (size_t i = begin; i < end; ++i)
                               fn(i);
                       });
}

DseResult
Explorer::exhaustive()
{
    const double t0 = nowSeconds();
    const size_t n = space_.size();
    VITCOD_TRACE_SPAN("exhaustive", "dse", "space", double(n));
    std::vector<DsePoint> slots(n);
    parallelOver(n, [&](size_t i) {
        if (space_.valid(i))
            slots[i] = evaluateIndex(i);
    });

    DseResult r;
    r.frontier.workloads = specs_;
    for (size_t i = 0; i < n; ++i) {
        if (!space_.valid(i))
            continue;
        r.frontier.insert(slots[i]);
        ++r.evaluated;
    }
    r.frontier.evaluated = r.evaluated;
    r.baseline = baseline_;
    r.wallSeconds = nowSeconds() - t0;
    obs::metrics()
        .gauge("vitcod_dse_frontier_points",
               "Unique priced points in the last finished search")
        .set(static_cast<double>(r.evaluated));
    return r;
}

} // namespace vitcod::dse
