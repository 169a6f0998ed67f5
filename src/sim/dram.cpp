#include "dram.h"

#include <cmath>

#include "common/logging.h"

namespace vitcod::sim {

DramModel::DramModel(DramConfig cfg) : cfg_(cfg)
{
    VITCOD_ASSERT(cfg_.bandwidthGBps > 0 && cfg_.coreFreqGhz > 0,
                  "bad DRAM config");
    VITCOD_ASSERT(cfg_.burstBytes > 0, "burst size must be positive");
}

double
DramModel::bytesPerCycle() const
{
    return cfg_.bandwidthGBps / cfg_.coreFreqGhz;
}

Cycles
DramModel::streamCycles(Bytes bytes) const
{
    if (bytes == 0)
        return 0;
    const Bytes quantized = roundUp(bytes, cfg_.burstBytes);
    const double cycles =
        static_cast<double>(quantized) / bytesPerCycle();
    return static_cast<Cycles>(std::ceil(cycles));
}

Cycles
DramModel::gatherCycles(uint64_t count, Bytes grain_bytes) const
{
    if (count == 0 || grain_bytes == 0)
        return 0;
    const Bytes per_grain = roundUp(grain_bytes, cfg_.burstBytes);
    const double cycles = static_cast<double>(per_grain * count) *
                          cfg_.randomPenalty / bytesPerCycle();
    return static_cast<Cycles>(std::ceil(cycles)) +
           cfg_.firstWordLatency;
}

} // namespace vitcod::sim
