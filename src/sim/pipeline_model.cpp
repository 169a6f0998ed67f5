#include "pipeline_model.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace vitcod::sim {

const char *
simModeName(SimMode mode)
{
    return mode == SimMode::Analytic ? "analytic" : "pipelined";
}

Cycles
itemLoadCycles(const PipeItem &item, const DramModel &dram)
{
    Cycles c = dram.streamCycles(item.loadBytes);
    if (item.gatherCount > 0)
        c += dram.gatherCycles(item.gatherCount,
                               item.gatherGrainBytes);
    return c;
}

Cycles
itemComputeCycles(const PipeItem &item)
{
    return std::max({item.denserCycles, item.sparserCycles,
                     item.decodeCycles}) +
           item.syncCycles;
}

Cycles
itemStoreCycles(const PipeItem &item, const DramModel &dram)
{
    return dram.streamCycles(item.storeBytes);
}

TileCost
analyticTile(const PipeItem &item, const DramModel &dram)
{
    return {itemLoadCycles(item, dram), itemComputeCycles(item),
            itemStoreCycles(item, dram)};
}

StageCounters &
StageCounters::operator+=(const StageCounters &o)
{
    busy += o.busy;
    stall += o.stall;
    idle += o.idle;
    return *this;
}

PipelineStats &
PipelineStats::operator+=(const PipelineStats &o)
{
    totalCycles += o.totalCycles;
    fetch += o.fetch;
    denser += o.denser;
    sparser += o.sparser;
    writeback += o.writeback;
    fetchFifoHighWater =
        std::max(fetchFifoHighWater, o.fetchFifoHighWater);
    writebackFifoHighWater =
        std::max(writebackFifoHighWater, o.writebackFifoHighWater);
    items += o.items;
    events += o.events;
    return *this;
}

std::string
PipelineStats::str() const
{
    std::ostringstream oss;
    oss << "total " << totalCycles << " items " << items << " events "
        << events << '\n';
    const auto stage = [&](const char *name,
                           const StageCounters &c) {
        oss << name << " busy " << c.busy << " stall " << c.stall
            << " idle " << c.idle << '\n';
    };
    stage("fetch", fetch);
    stage("denser", denser);
    stage("sparser", sparser);
    stage("writeback", writeback);
    oss << "fifo_high_water fetch " << fetchFifoHighWater
        << " writeback " << writebackFifoHighWater << '\n';
    return oss.str();
}

PipelineModel::PipelineModel(PipelineConfig cfg, DramConfig dram)
    : cfg_(cfg), dram_(dram)
{
    VITCOD_ASSERT(cfg_.fetchFifoDepth > 0 &&
                      cfg_.writebackFifoDepth > 0,
                  "pipeline FIFO depths must be >= 1 chunk");
    VITCOD_ASSERT(cfg_.fifoChunkBytes > 0,
                  "pipeline FIFO chunk size must be positive");
}

namespace {

/** What the recurrence keeps of an earlier item: item i reads only
 *  items i-1 and i-2, so two of these carry the whole state. */
struct Retired
{
    Tick fetchEnd = 0;  //!< operands resident (read port freed)
    Tick release = 0;   //!< PE handed the result on, bank freed
    Tick storeDone = 0; //!< result bank drained (= release if none)
    size_t inChunks = 0, outChunks = 0;
};

/** Charge one lane for an item: join-stalled for the rest of the
 *  occupancy if it works, stalled through the gap before compute
 *  and the output hold either way, idle otherwise. */
void
chargeLane(StageCounters &lane, Cycles lane_occ, Cycles occ,
           Cycles blocked)
{
    lane.stall += blocked;
    if (lane_occ > 0) {
        lane.busy += lane_occ;
        lane.stall += occ - lane_occ;
    }
}

} // namespace

PipelineStats
PipelineModel::run(const std::vector<PipeItem> &items) const
{
    PipelineStats ps;
    ps.items = items.size();

    const auto chunks = [&](Bytes b) {
        return static_cast<size_t>(ceilDiv(b, cfg_.fifoChunkBytes));
    };
    // A single item must always fit; the clamp keeps shallow depths
    // meaningful (they throttle cross-item prefetch) without ever
    // wedging the machine.
    size_t cap_in = cfg_.fetchFifoDepth;
    size_t cap_out = cfg_.writebackFifoDepth;
    for (const PipeItem &it : items) {
        cap_in = std::max(cap_in, chunks(it.loadBytes));
        cap_out = std::max(cap_out, chunks(it.storeBytes));
    }

    Retired p1, p2; // items i-1 and i-2 (zeroed before the group)
    Tick fetch_free = 0; // end of the last read-port transfer
    Tick wb_free = 0;    // end of the last write-port transfer
    Tick total = 0;
    for (const PipeItem &it : items) {
        Retired cur;
        cur.inChunks = chunks(it.loadBytes);
        cur.outChunks = chunks(it.storeBytes);

        // Fetch, in order on the read port. Both operand banks stay
        // claimed until item i-2 releases; the input FIFO holds
        // items i-1 and i, so a FIFO too small for both also waits
        // for item i-1. A fetch that starts on the cycle item i-1
        // releases still counts i-1's chunks resident.
        Tick fetch_start = std::max(p1.fetchEnd, p2.release);
        size_t resident = cur.inChunks;
        if (p1.inChunks + cur.inChunks > cap_in)
            fetch_start = std::max(fetch_start, p1.release);
        else if (p1.release >= fetch_start)
            resident += p1.inChunks;
        ps.fetchFifoHighWater =
            std::max(ps.fetchFifoHighWater, resident);
        Cycles load = itemLoadCycles(it, dram_);
        if (load > 0) {
            load += cfg_.fetchLatency;
            ps.fetch.stall += fetch_start - fetch_free;
            ps.fetch.busy += load;
            fetch_free = fetch_start + load;
            ++ps.events;
        }
        cur.fetchEnd = fetch_start + load;

        // Compute: the fork-join PE complex, in order. It starts
        // once the PE is free, the operands are resident and item
        // i-2's result bank has drained.
        const Tick compute_start =
            std::max({p1.release, cur.fetchEnd, p2.storeDone});
        const Cycles denser_occ =
            it.denserCycles > 0 ? it.denserCycles + cfg_.denserLatency
                                : 0;
        const Cycles sparser_occ =
            it.sparserCycles > 0
                ? it.sparserCycles + cfg_.sparserLatency
                : 0;
        const Cycles occ =
            std::max({denser_occ, sparser_occ, it.decodeCycles}) +
            it.syncCycles;
        const Tick raw_end = compute_start + occ;
        ++ps.events;

        // Release into the output FIFO, which holds the results of
        // items i-1 and i: when both do not fit, the PE holds the
        // result until item i-1's writeback drains. A result leaves
        // the FIFO on the cycle its writeback completes.
        cur.release = raw_end;
        if (cur.outChunks > 0) {
            if (p1.outChunks + cur.outChunks > cap_out)
                cur.release = std::max(cur.release, p1.storeDone);
            const size_t out_resident =
                cur.outChunks +
                (p1.storeDone > cur.release ? p1.outChunks : 0);
            ps.writebackFifoHighWater =
                std::max(ps.writebackFifoHighWater, out_resident);
        }
        const Cycles blocked = (compute_start - p1.release) +
                               (cur.release - raw_end);
        chargeLane(ps.denser, denser_occ, occ, blocked);
        chargeLane(ps.sparser, sparser_occ, occ, blocked);

        // Writeback, in order on the write port.
        cur.storeDone = cur.release;
        if (cur.outChunks > 0) {
            const Cycles store =
                itemStoreCycles(it, dram_) + cfg_.writebackLatency;
            wb_free = std::max(cur.release, wb_free) + store;
            ps.writeback.busy += store;
            cur.storeDone = wb_free;
            ++ps.events;
        }

        total = std::max(total, cur.storeDone);
        p2 = p1;
        p1 = cur;
    }

    ps.totalCycles = total;
    for (StageCounters *c :
         {&ps.fetch, &ps.denser, &ps.sparser, &ps.writeback}) {
        VITCOD_ASSERT(c->busy + c->stall <= total,
                      "pipeline stage over-accounted: busy ", c->busy,
                      " + stall ", c->stall, " > total ", total);
        c->idle = total - c->busy - c->stall;
    }
    return ps;
}

} // namespace vitcod::sim
