#include "serve/plan_cache.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "dse/pareto.h"
#include "model/vit_config.h"

namespace vitcod::serve {

accel::ViTCoDConfig
tunedHwConfig(const std::string &frontier_path,
              const accel::ViTCoDConfig &base)
{
    const dse::ParetoFrontier f =
        dse::ParetoFrontier::readJsonFile(frontier_path);
    if (f.points().empty())
        fatal("tuned-config frontier '", frontier_path,
              "' has no points");
    return f.bestLatency().hw.apply(base);
}

std::string
PlanKey::str() const
{
    std::ostringstream oss;
    oss << model << '/' << sparsity << '/' << (useAe ? "ae" : "noae")
        << '/' << (endToEnd ? "e2e" : "attn");
    return oss.str();
}

bool
PlanKey::valid() const
{
    return sparsity >= 0.0 && sparsity <= 1.0 &&
           model::findModel(model).has_value();
}

Bytes
modelWeightBytes(const model::VitModelConfig &m, size_t elem_bytes)
{
    uint64_t params = 0;
    for (const auto &st : m.stages) {
        const uint64_t qkv = 3ull * st.embedDim * st.heads * st.headDim;
        const uint64_t proj =
            static_cast<uint64_t>(st.heads) * st.headDim * st.embedDim;
        const uint64_t mlp =
            2ull * st.mlpRatio * st.embedDim * st.embedDim;
        params += st.layers * (qkv + proj + mlp);
    }
    return params * elem_bytes;
}

PlanCache::PlanCache(accel::ViTCoDConfig hw, size_t capacity)
    : hw_(std::move(hw)), capacity_(capacity)
{
}

PlanCache::PlanPtr
PlanCache::build(const PlanKey &key) const
{
    const auto t0 = std::chrono::steady_clock::now();

    auto cp = std::make_shared<CompiledPlan>();
    cp->key = key;
    const model::VitModelConfig m = model::modelByName(key.model);
    cp->plan = core::buildModelPlan(
        m, core::makePipelineConfig(key.sparsity, key.useAe));
    // One schedule build per task: the simulator prices it,
    // ModelExec workers execute from it.
    cp->schedule =
        core::schedule::ScheduleBuilder({accel::scheduleParams(hw_)})
            .build(cp->plan, key.endToEnd);
    cp->simEstimate =
        accel::ViTCoDAccelerator(hw_).runSchedule(cp->schedule);
    cp->weightLoadSeconds =
        static_cast<double>(modelWeightBytes(m, hw_.elemBytes)) /
        (hw_.dram.bandwidthGBps * 1e9);

    cp->compileWallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return cp;
}

std::shared_ptr<const CompiledPlan>
PlanCache::get(const PlanKey &key)
{
    const std::string k = key.str();
    std::promise<PlanPtr> promise;
    std::shared_future<PlanPtr> hit;
    {
        std::lock_guard<std::mutex> g(lock_);
        auto it = entries_.find(k);
        if (it != entries_.end()) {
            ++stats_.hits;
            if (it->second.ready)
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            // Copy the future so the entry may be evicted while we
            // wait without invalidating our handle.
            hit = it->second.future;
        } else {
            ++stats_.misses;
            Entry e;
            e.future = promise.get_future().share();
            entries_.emplace(k, std::move(e));
        }
    }
    if (hit.valid())
        return hit.get();

    PlanPtr cp = build(key);

    {
        std::lock_guard<std::mutex> g(lock_);
        stats_.compileWallSeconds += cp->compileWallSeconds;
        auto it = entries_.find(k);
        if (it != entries_.end()) {
            lru_.push_front(k);
            it->second.lruIt = lru_.begin();
            it->second.ready = true;
        }
        if (capacity_ > 0) {
            while (lru_.size() > capacity_) {
                const std::string victim = lru_.back();
                lru_.pop_back();
                entries_.erase(victim);
                ++stats_.evictions;
            }
        }
    }

    promise.set_value(cp);
    return cp;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> g(lock_);
    return stats_;
}

size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> g(lock_);
    return lru_.size();
}

} // namespace vitcod::serve
