/**
 * @file
 * Double-buffered tile schedule math. Engines process a stream of
 * tiles, each with a load phase (DRAM -> SRAM), a compute phase and
 * a store phase (SRAM -> DRAM). With double buffering, tile i+1's
 * load overlaps tile i's compute and tile i-1's store drains behind
 * both; steady-state cost per tile is the max of the three. This
 * closed form is the analytic pricer, and the independent reference
 * the pipelined machine (pipeline_model.h) must reproduce exactly
 * whenever its FIFOs and stage latencies cannot stall it.
 */

#ifndef VITCOD_SIM_TILE_SCHEDULER_H
#define VITCOD_SIM_TILE_SCHEDULER_H

#include <vector>

#include "common/units.h"

namespace vitcod::sim {

/** Phase costs of one tile, in cycles. */
struct TileCost
{
    Cycles load = 0;
    Cycles compute = 0;
    Cycles store = 0;
};

/**
 * Total cycles of a double-buffered schedule, analytic form:
 * load(0) fills the pipe, then each step advances by
 * max(compute(i), load(i+1), store(i-1)); the final store drains.
 * Single-phase degenerate cases fall out naturally.
 */
Cycles doubleBufferedCycles(const std::vector<TileCost> &tiles);

} // namespace vitcod::sim

#endif // VITCOD_SIM_TILE_SCHEDULER_H
