#include "serve/backend.h"

#include <chrono>
#include <utility>

#include "accel/platform.h"
#include "accel/sanger.h"
#include "accel/spatten.h"
#include "accel/vitcod_accel.h"
#include "common/logging.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace vitcod::serve {

ServeBackend::ServeBackend(std::string name, double freq_ghz)
    : name_(std::move(name)), freqGhz_(freq_ghz)
{
}

ServeBackend::BatchResult
ServeBackend::runBatch(const CompiledPlan &cp, size_t n)
{
    VITCOD_ASSERT(n >= 1, "empty batch");
    const std::string key = cp.key.str();
    const accel::RunStats one = runOnce(cp);

    BatchResult r;
    r.perRequestSeconds = one.seconds;
    // A batch is n back-to-back inferences of the same plan; weights
    // stream per inference either way, so the batch scales linearly
    // and the win lives in the avoided plan switches below.
    for (size_t i = 0; i < n; ++i)
        r.stats += one;
    r.stats.device = name_;
    r.stats.model = one.model;
    r.stats.utilization = one.utilization;

    if (lastPlan_ != key) {
        r.switched = true;
        r.switchSeconds = cp.weightLoadSeconds;
        r.stats.seconds += r.switchSeconds;
        r.stats.dataMoveSeconds += r.switchSeconds;
        lastPlan_ = key;
    }
    return r;
}

ViTCoDServeBackend::ViTCoDServeBackend(const accel::ViTCoDConfig &cfg)
    : ServeBackend(cfg.name, cfg.freqGhz)
{
}

accel::RunStats
ViTCoDServeBackend::runOnce(const CompiledPlan &cp) const
{
    return cp.simEstimate;
}

ModelExecServeBackend::ModelExecServeBackend(
    const linalg::engine::KernelEngine *eng, size_t num_classes,
    size_t states_capacity)
    : ServeBackend("ModelExec", /*freq_ghz=*/1.0),
      engine_(eng), numClasses_(num_classes),
      statesCapacity_(states_capacity)
{
    if (!engine_) {
        ownEngine_ = std::make_unique<linalg::engine::KernelEngine>(
            linalg::engine::EngineConfig{},
            &linalg::engine::ThreadPool::shared());
        engine_ = ownEngine_.get();
    }
}

ModelExecServeBackend::PlanState &
ModelExecServeBackend::stateFor(const CompiledPlan &cp) const
{
    const std::string key = cp.key.str();
    auto it = states_.find(key);
    if (it != states_.end()) {
        lru_.remove(key);
        lru_.push_front(key);
        return *it->second;
    }

    // First sight of this task on this worker: copy the plan and
    // its compiled schedule (the CompiledPlan's lifetime is the
    // cache's, not ours), draw the deterministic weight set and
    // build the resident executor over the copied schedule — no
    // mask scan, no schedule rebuild.
    auto st = std::make_unique<PlanState>();
    st->plan = cp.plan;
    st->schedule = cp.schedule;
    Rng rng(cp.plan.cfg.seed);
    core::model_exec::ModelWeights w =
        core::model_exec::ModelWeights::random(
            st->plan.model, /*in_dim=*/0, numClasses_, rng);
    st->exec = std::make_unique<core::model_exec::ModelExecutor>(
        &st->plan, std::move(w),
        core::model_exec::ExecutorConfig{.numClasses = numClasses_},
        engine_, &st->schedule);
    const auto &stage0 = st->plan.model.stages.front();
    st->input = linalg::Matrix::randomNormal(
        stage0.tokens, st->exec->config().inDim, rng);
    it = states_.emplace(key, std::move(st)).first;
    lru_.push_front(key);
    if (statesCapacity_ && states_.size() > statesCapacity_) {
        states_.erase(lru_.back());
        lru_.pop_back();
    }
    return *it->second;
}

accel::RunStats
ModelExecServeBackend::runOnce(const CompiledPlan &cp) const
{
    PlanState &st = stateFor(cp);

    const auto t0 = std::chrono::steady_clock::now();
    const linalg::Matrix logits =
        st.exec->forward(st.input, &lastTrace_);
    const auto t1 = std::chrono::steady_clock::now();
    VITCOD_ASSERT(logits.cols() == numClasses_,
                  "model exec backend logits shape mismatch");

    accel::RunStats stats;
    stats.model = st.plan.model.name;
    stats.macs = st.exec->forwardMacs();
    stats.seconds = std::chrono::duration<double>(t1 - t0).count();
    stats.computeSeconds = stats.seconds;
    stats.utilization = 1.0;
    return stats;
}

DeviceServeBackend::DeviceServeBackend(
    std::unique_ptr<accel::Device> dev, double freq_ghz)
    : ServeBackend(dev->name(), freq_ghz), dev_(std::move(dev))
{
}

accel::RunStats
DeviceServeBackend::runOnce(const CompiledPlan &cp) const
{
    const std::string key = cp.key.str();
    auto it = memo_.find(key);
    if (it == memo_.end())
        it = memo_
                 .emplace(key, cp.key.endToEnd
                                   ? dev_->runEndToEnd(cp.plan)
                                   : dev_->runAttention(cp.plan))
                 .first;
    return it->second;
}

std::unique_ptr<ServeBackend>
makeServeBackend(const std::string &spec,
                 const accel::ViTCoDConfig &hw)
{
    if (spec == "ViTCoD")
        return std::make_unique<ViTCoDServeBackend>(hw);
    if (spec == "CPU")
        return std::make_unique<DeviceServeBackend>(
            std::make_unique<accel::PlatformModel>(
                accel::cpuXeon6230R()),
            /*freq_ghz=*/1.0);
    if (spec == "GPU")
        return std::make_unique<DeviceServeBackend>(
            std::make_unique<accel::PlatformModel>(accel::gpu2080Ti()),
            /*freq_ghz=*/1.0);
    if (spec == "EdgeGPU")
        return std::make_unique<DeviceServeBackend>(
            std::make_unique<accel::PlatformModel>(
                accel::edgeGpuXavierNX()),
            /*freq_ghz=*/1.0);
    if (spec == "SpAtten")
        return std::make_unique<DeviceServeBackend>(
            std::make_unique<accel::SpAttenAccelerator>(),
            accel::SpAttenConfig{}.freqGhz);
    if (spec == "Sanger")
        return std::make_unique<DeviceServeBackend>(
            std::make_unique<accel::SangerAccelerator>(),
            accel::SangerConfig{}.freqGhz);
    if (spec == "ModelExec")
        return std::make_unique<ModelExecServeBackend>();
    fatal("unknown serve backend '", spec,
          "' (expected ViTCoD|CPU|GPU|EdgeGPU|SpAtten|Sanger|"
          "ModelExec)");
}

} // namespace vitcod::serve
