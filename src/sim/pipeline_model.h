/**
 * @file
 * Pipelined accelerator model. Where the analytic simulator prices a
 * layer with the closed-form double-buffering recurrence
 * (tile_scheduler.h), this model plays the same work items through
 * an explicit four-stage machine with finite FIFOs, priced by one
 * max-plus recurrence over the items:
 *
 *     fetch ──> [ denser PE ∥ sparser PE ∥ AE decode ] ──> writeback
 *
 * - The *fetch* stage is the DRAM read port shared by both engines:
 *   one in-order port streams every item's operands (bytes-per-cycle
 *   from DramModel, gathers priced exactly like the analytic path)
 *   into an inter-stage FIFO of fetchFifoDepth chunks of
 *   fifoChunkBytes each. An item's chunks stay resident until its
 *   compute releases them, so a shallow FIFO throttles prefetch of
 *   the next item (backpressure), on top of the structural
 *   double-buffer gate (fetch of item i waits for compute of item
 *   i-2, exactly like the analytic recurrence's two load banks).
 * - The *compute* stage forks the item across the denser engine, the
 *   sparser engine and the AE decoder; the lanes join (the slowest
 *   bounds the item, matching the analytic max()) and a serial sync
 *   tail (reconfiguration) follows. Per-lane latency adders model
 *   pipeline fill.
 * - The *writeback* stage mirrors fetch on the DRAM write port:
 *   results enter a writebackFifoDepth-chunk FIFO; when the FIFO
 *   cannot take an item's result the PE is held (output-blocking
 *   stall) until earlier writes drain.
 *
 * With deep FIFOs and zero latency adders the machine reduces — by
 * construction, pinned by the differential suite in
 * tests/sim/test_pipeline_model.cpp — to doubleBufferedCycles()
 * over analyticTile() costs, so pipelined and analytic cycle counts
 * agree exactly whenever stalls cannot occur; constrained configs
 * add stalls monotonically (deeper FIFOs / more bandwidth never
 * increase cycles, analytic <= pipelined always). Semantics and
 * validation methodology are documented in docs/SIMULATOR.md.
 */

#ifndef VITCOD_SIM_PIPELINE_MODEL_H
#define VITCOD_SIM_PIPELINE_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/dram.h"
#include "sim/tile_scheduler.h"

namespace vitcod::sim {

/** Which simulator prices a schedule. */
enum class SimMode
{
    Analytic,  //!< closed-form double-buffering recurrence
    Pipelined, //!< stage graph with finite FIFOs and backpressure
};

/** Display name of @p mode ("analytic" / "pipelined"). */
const char *simModeName(SimMode mode);

/** Knobs of the pipelined machine (defaults match the analytic
 *  model: deep FIFOs, no extra stage latency). */
struct PipelineConfig
{
    /** Input FIFO depth between fetch and the PE arrays, in chunks.
     *  Clamped up to one item's chunk count so a single item always
     *  fits (no structural deadlock). */
    size_t fetchFifoDepth = 64;

    /** Output FIFO depth between the PE arrays and writeback. */
    size_t writebackFifoDepth = 64;

    /** FIFO slot granularity: bytes of operand/result per chunk. */
    Bytes fifoChunkBytes = 4096;

    /** @name Per-stage latency adders (pipeline fill), in cycles.
     *  Charged once per item that exercises the stage.
     *  @{ */
    Cycles fetchLatency = 0;
    Cycles denserLatency = 0;
    Cycles sparserLatency = 0;
    Cycles writebackLatency = 0;
    /** @} */

    bool operator==(const PipelineConfig &) const = default;
};

/**
 * One unit of pipelined work — a phase of a layer (SDDMM, softmax,
 * SpMM, a dense GEMM, ...) with its operand stream, its fork-join
 * engine occupancies and its result stream. Built by the accelerator
 * from a LayerSchedule; the SAME items feed both the analytic tiles
 * (analyticTile()) and the pipelined machine, so the two models
 * cannot drift.
 */
struct PipeItem
{
    Bytes loadBytes = 0;          //!< sequential operand stream
    uint64_t gatherCount = 0;     //!< scattered grains (Q gathers)
    Bytes gatherGrainBytes = 0;   //!< bytes per scattered grain
    Cycles denserCycles = 0;      //!< denser-engine lane occupancy
    Cycles sparserCycles = 0;     //!< sparser-engine lane occupancy
    Cycles decodeCycles = 0;      //!< AE en/decoder lane occupancy
    Cycles syncCycles = 0;        //!< serial tail after the join
    Bytes storeBytes = 0;         //!< result stream

    bool operator==(const PipeItem &) const = default;
};

/** @name Shared analytic pricing of one item
 * The exact costs the analytic model charges; the pipelined machine
 * uses the same quantities, so equality on stall-free configs is
 * structural rather than coincidental.
 * @{ */
/** Read-port cycles: sequential stream plus gathers. */
Cycles itemLoadCycles(const PipeItem &item, const DramModel &dram);
/** Fork-join occupancy: max of the three lanes plus the sync tail. */
Cycles itemComputeCycles(const PipeItem &item);
/** Write-port cycles of the result stream. */
Cycles itemStoreCycles(const PipeItem &item, const DramModel &dram);
/** The item as an analytic double-buffering tile. */
TileCost analyticTile(const PipeItem &item, const DramModel &dram);
/** @} */

/** Exact cycle accounting of one stage: total = busy+stall+idle. */
struct StageCounters
{
    Cycles busy = 0;  //!< transferring / computing
    Cycles stall = 0; //!< blocked: FIFO full, bank gate, starved,
                      //!< join imbalance, output-blocked
    Cycles idle = 0;  //!< no work pending (ramp/drain remainder)

    Cycles total() const { return busy + stall + idle; }

    StageCounters &operator+=(const StageCounters &o);
    bool operator==(const StageCounters &) const = default;
};

/** Result of one pipelined run (or a sum over groups/layers). */
struct PipelineStats
{
    Cycles totalCycles = 0; //!< makespan (summed over groups)

    StageCounters fetch;     //!< DRAM read port
    StageCounters denser;    //!< denser PE lane
    StageCounters sparser;   //!< sparser PE lane
    StageCounters writeback; //!< DRAM write port

    size_t fetchFifoHighWater = 0;     //!< max input chunks resident
    size_t writebackFifoHighWater = 0; //!< max output chunks resident

    uint64_t items = 0;  //!< work items played
    uint64_t events = 0; //!< stage operations: non-empty fetches
                         //!< + items + non-empty writebacks

    /** Total blocked cycles across all stages. */
    Cycles stallCycles() const
    {
        return fetch.stall + denser.stall + sparser.stall +
               writeback.stall;
    }

    /** Aggregate another run: cycles/counters sum, high waters max. */
    PipelineStats &operator+=(const PipelineStats &o);
    bool operator==(const PipelineStats &) const = default;

    /** Multi-line human/golden-readable form (docs/SIMULATOR.md). */
    std::string str() const;
};

/**
 * The pipelined machine. Stateless across runs (const, re-entrant):
 * each run() plays one group of items — a span that drains fully at
 * its boundaries, e.g. one layer's [SDDMM, softmax, SpMM] — in one
 * forward pass; callers sum group stats with operator+=.
 */
class PipelineModel
{
  public:
    explicit PipelineModel(PipelineConfig cfg = {},
                           DramConfig dram = {});

    const PipelineConfig &config() const { return cfg_; }

    /** Play @p items through the stage graph; returns the exact
     *  per-stage cycle accounting. Deterministic. */
    PipelineStats run(const std::vector<PipeItem> &items) const;

  private:
    PipelineConfig cfg_;
    DramModel dram_;
};

} // namespace vitcod::sim

#endif // VITCOD_SIM_PIPELINE_MODEL_H
