/**
 * @file
 * Off-chip memory model. The paper's accelerator attaches DDR4-2400
 * (multiple banks behind one controller) delivering 76.8 GB/s to a
 * 500 MHz core — 153.6 bytes per core cycle. Transfers are
 * burst-quantized; scattered (gather-style) accesses pay for whole
 * bursts per touched grain, which is exactly why ViTs' diagonal
 * sparse patterns are traffic-bound (paper Fig. 3) and why the AE
 * compression pays off.
 */

#ifndef VITCOD_SIM_DRAM_H
#define VITCOD_SIM_DRAM_H

#include "common/units.h"

namespace vitcod::sim {

/** DRAM channel parameters. */
struct DramConfig
{
    double bandwidthGBps = 76.8; //!< sustained sequential bandwidth
    double coreFreqGhz = 0.5;    //!< consumer clock for cycle math
    Bytes burstBytes = 64;       //!< minimum transfer granule
    Cycles firstWordLatency = 40; //!< pipeline-fill latency (cycles)
    double randomPenalty = 1.6;  //!< derating for scattered bursts
};

/**
 * Analytic DRAM channel: pure latency helpers. Traffic itself is
 * counted by the callers' schedules (per-phase DRAM streams), not
 * here.
 */
class DramModel
{
  public:
    explicit DramModel(DramConfig cfg = {});

    const DramConfig &config() const { return cfg_; }

    /** Sustained bytes per core cycle. */
    double bytesPerCycle() const;

    /**
     * Cycles to stream @p bytes sequentially (burst-quantized,
     * excluding the first-word latency, which pipelined transfers
     * hide).
     */
    Cycles streamCycles(Bytes bytes) const;

    /**
     * Cycles to gather @p count scattered grains of @p grain_bytes
     * each: every grain is rounded up to whole bursts and pays the
     * random-access derating.
     */
    Cycles gatherCycles(uint64_t count, Bytes grain_bytes) const;

  private:
    DramConfig cfg_;
};

} // namespace vitcod::sim

#endif // VITCOD_SIM_DRAM_H
