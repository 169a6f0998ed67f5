#include "vitcod_accel.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "model/flops.h"
#include "obs/metrics.h"
#include "sim/tile_scheduler.h"

namespace vitcod::accel {

core::schedule::HardwareParams
scheduleParams(const ViTCoDConfig &cfg)
{
    core::schedule::HardwareParams p;
    p.macLines = cfg.macArray.macLines;
    p.macsPerLine = cfg.macArray.macsPerLine;
    p.elemBytes = cfg.elemBytes;
    p.indexBytes = cfg.indexBytes;
    p.qkvBufBytes = cfg.qkvBufBytes;
    p.sBufferBytes = cfg.sBufferBytes;
    p.aeLines = cfg.aeLines;
    p.aeDecodeRate = cfg.aeDecodeRate;
    p.softmaxLanesPerEngine = cfg.softmaxLanesPerEngine;
    p.colOverheadCycles = cfg.colOverheadCycles;
    p.reconfigCycles = cfg.reconfigCycles;
    p.denseEff = cfg.denseEff;
    p.gemmEff = cfg.gemmEff;
    p.twoPronged = cfg.twoPronged;
    p.enableAeEngines = cfg.enableAeEngines;
    p.dynamicMaskPrediction = cfg.dynamicMaskPrediction;
    p.predictionCostFactor = cfg.predictionCostFactor;
    p.sparserLineFrac = cfg.sparserLineFrac;
    return p;
}

namespace {

/** Dense-streaming cycles on @p use_lines denser-engine lines. */
Cycles
denseCycles(const ViTCoDConfig &cfg, MacOps macs, size_t use_lines)
{
    if (macs == 0 || use_lines == 0)
        return 0;
    const double ideal = static_cast<double>(
        ceilDiv(macs, use_lines * cfg.macArray.macsPerLine));
    return static_cast<Cycles>(std::ceil(ideal / cfg.denseEff));
}

/** GEMM cycles on the whole reused array (proj/MLP/stem phases). */
Cycles
gemmCycles(const ViTCoDConfig &cfg, MacOps m)
{
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(ceilDiv(
                      m, cfg.macArray.macLines *
                             cfg.macArray.macsPerLine)) /
                  cfg.gemmEff));
}

/** The attention phases of one layer as pipelined work items. */
struct AttentionItems
{
    std::vector<sim::PipeItem> attn; //!< [SDDMM, softmax, SpMM]
    sim::PipeItem prediction;        //!< NLP dynamic-mask pass
    bool hasPrediction = false;
};

/**
 * Build the work items both simulator modes price: the analytic
 * path turns each into a double-buffering tile (analyticTile), the
 * pipelined path plays them through the stage graph. One builder
 * means the two models share every cost expression and cannot
 * drift (pinned by tests/sim/test_pipeline_model.cpp).
 */
AttentionItems
buildAttentionItems(const ViTCoDConfig &cfg,
                    const core::schedule::LayerSchedule &ls)
{
    const size_t lines = cfg.macArray.macLines;
    const size_t mpl = cfg.macArray.macsPerLine;
    AttentionItems out;

    // ---- SDDMM: Q/K/index streams + gathers feeding the denser /
    // sparser / decoder engines racing in parallel.
    const Cycles decode =
        (ls.aeOn && cfg.aeLines > 0)
            ? ceilDiv(ls.decodeMacs,
                      static_cast<MacOps>(
                          static_cast<double>(cfg.aeLines * mpl) *
                          cfg.aeDecodeRate))
            : 0;
    sim::PipeItem sddmm;
    sddmm.loadBytes = ls.qkLoadBytes + ls.idxBytes;
    sddmm.gatherCount = ls.gatherMisses;
    sddmm.gatherGrainBytes = ls.gatherRowBytes;
    sddmm.decodeCycles = decode;
    if (cfg.twoPronged) {
        sddmm.denserCycles =
            denseCycles(cfg, ls.denserSddmmMacs, ls.sddmmDenserLines);
        sddmm.sparserCycles = ls.sddmmSparserCycles;
    } else {
        // Monolithic engine: dense and sparse work serialize on one
        // lane (plus the accumulation-mode switch between them).
        sddmm.denserCycles =
            denseCycles(cfg, ls.denserSddmmMacs, lines) +
            ls.sddmmSparserCycles + cfg.reconfigCycles;
    }

    // ---- Softmax over stored scores, on both engines' lanes.
    const size_t sm_lanes =
        cfg.softmaxLanesPerEngine * (cfg.twoPronged ? 2 : 1);
    sim::PipeItem softmax;
    softmax.denserCycles = ceilDiv(2 * ls.softmaxElems, sm_lanes);
    if (cfg.twoPronged)
        softmax.sparserCycles = softmax.denserCycles;

    // ---- SpMM: V streams in, V' streams out; the inter->intra-PE
    // reconfiguration is a serial tail after the engines join.
    sim::PipeItem spmm;
    spmm.loadBytes = ls.vLoadBytes;
    spmm.storeBytes = ls.outStoreBytes;
    spmm.syncCycles = cfg.reconfigCycles;
    if (cfg.twoPronged) {
        spmm.denserCycles =
            denseCycles(cfg, ls.denserSpmmMacs, ls.spmmDenserLines);
        spmm.sparserCycles = ls.spmmSparserCycles;
    } else {
        spmm.denserCycles =
            denseCycles(cfg, ls.denserSpmmMacs, lines) +
            ls.spmmSparserCycles;
    }

    out.attn = {sddmm, softmax, spmm};

    // ---- Optional on-the-fly mask prediction (NLP mode): a serial
    // pass that drains the pipeline before the layer starts.
    if (cfg.dynamicMaskPrediction) {
        out.hasPrediction = true;
        out.prediction.denserCycles =
            denseCycles(cfg, ls.predictMacs, lines);
        out.prediction.syncCycles = ls.predictOverhead;
    }
    return out;
}

/** The dense block phases (end-to-end runs) as pipelined items. */
std::vector<sim::PipeItem>
buildDenseItems(const ViTCoDConfig &cfg,
                const core::schedule::LayerSchedule &ls)
{
    const size_t mpl = cfg.macArray.macsPerLine;
    const core::schedule::DenseBlockSchedule &db = ls.dense;

    sim::PipeItem proj; // QKV generation, encoder overlapped on AE
    proj.loadBytes = db.projLoadBytes;
    proj.storeBytes = db.projStoreBytes;
    proj.denserCycles = gemmCycles(cfg, db.projMacs);
    proj.decodeCycles =
        ls.aeOn ? ceilDiv(db.encodeMacs, cfg.aeLines * mpl) : 0;

    sim::PipeItem outproj;
    outproj.loadBytes = db.outProjBytes;
    outproj.denserCycles = gemmCycles(cfg, db.outProjMacs);

    sim::PipeItem mlp;
    mlp.loadBytes = db.mlpBytes;
    mlp.denserCycles = gemmCycles(cfg, db.mlpMacs);

    sim::PipeItem ln;
    ln.denserCycles = static_cast<Cycles>(
        static_cast<double>(db.lnElems) /
        static_cast<double>(cfg.softmaxLanesPerEngine * 2));

    return {proj, outproj, mlp, ln};
}

} // namespace

ViTCoDAccelerator::ViTCoDAccelerator(ViTCoDConfig cfg)
    : cfg_(std::move(cfg))
{
    VITCOD_ASSERT(cfg_.macArray.macLines > cfg_.aeLines,
                  "AE lines must leave MAC lines for the engines");
}

LayerAttentionStats
ViTCoDAccelerator::priceAttentionLayer(
    const core::schedule::LayerSchedule &ls, sim::SimMode mode) const
{
    const sim::DramModel dram(cfg_.dram);

    LayerAttentionStats st;
    st.attentionMacs = ls.attentionMacs();
    st.executedMacs = ls.execMacs.attn;
    st.decodeMacs = ls.decodeMacs;
    st.denserLines = ls.sddmmDenserLines;
    st.sparserLines = ls.sddmmSparserLines;
    st.qGatherMisses = ls.gatherMisses;

    const AttentionItems items = buildAttentionItems(cfg_, ls);
    st.sddmmCompute = sim::itemComputeCycles(items.attn[0]);
    st.softmaxCompute = sim::itemComputeCycles(items.attn[1]);
    st.spmmCompute = sim::itemComputeCycles(items.attn[2]);
    if (items.hasPrediction)
        st.prediction = sim::itemComputeCycles(items.prediction);

    // ---- Phase overlap within the layer: the closed-form recurrence
    // or the finite-FIFO machine, over the same items.
    if (mode == sim::SimMode::Analytic) {
        std::vector<sim::TileCost> tiles;
        tiles.reserve(items.attn.size());
        for (const sim::PipeItem &it : items.attn)
            tiles.push_back(sim::analyticTile(it, dram));
        st.total = sim::doubleBufferedCycles(tiles) + st.prediction;
    } else {
        const sim::PipelineModel pm(cfg_.pipeline, cfg_.dram);
        st.pipe = pm.run(items.attn);
        if (items.hasPrediction)
            st.pipe += pm.run({items.prediction});
        st.total = st.pipe.totalCycles;
    }
    const Cycles compute_sum =
        st.sddmmCompute + st.softmaxCompute + st.spmmCompute +
        st.prediction;
    st.exposedMemory = st.total - compute_sum;

    const Bytes sddmm_in_bytes = ls.qkLoadBytes + ls.idxBytes;
    st.sddmmRead = sddmm_in_bytes;
    st.dramRead = sddmm_in_bytes + ls.vLoadBytes;
    st.dramWrite = ls.outStoreBytes;
    return st;
}

LayerAttentionStats
ViTCoDAccelerator::simulateAttentionLayer(const core::ModelPlan &plan,
                                          size_t layer) const
{
    const core::schedule::ScheduleBuilder builder(
        {.hw = scheduleParams(cfg_), .buildLayouts = false});
    return priceAttentionLayer(
        builder.buildAttentionLayer(plan, layer));
}

RunStats
ViTCoDAccelerator::finalize(const core::schedule::ModelSchedule &sched,
                            sim::SimMode mode) const
{
    const auto eb = static_cast<double>(cfg_.elemBytes);
    const bool pipelined = mode == sim::SimMode::Pipelined;
    const sim::DramModel dram(cfg_.dram);
    const sim::PipelineModel pm(cfg_.pipeline, cfg_.dram);

    RunStats rs;
    rs.device = name();
    rs.model = sched.modelName;

    Cycles total = 0;
    Cycles compute = 0;
    Cycles preprocess = 0;
    MacOps macs = 0;

    for (const core::schedule::LayerSchedule &ls : sched.layers) {
        const LayerAttentionStats st = priceAttentionLayer(ls, mode);
        total += st.total;
        compute += st.sddmmCompute + st.softmaxCompute +
                   st.spmmCompute;
        preprocess += st.prediction;
        macs += st.attentionMacs + st.decodeMacs;
        rs.dramRead += st.dramRead;
        rs.dramWrite += st.dramWrite;
        if (pipelined)
            rs.pipeline += st.pipe;

        if (!sched.endToEnd)
            continue;

        // ---- Dense phases of the block, on the reused MAC array
        // (encoder overlapped on its dedicated lines).
        const core::schedule::DenseBlockSchedule &db = ls.dense;
        const std::vector<sim::PipeItem> dense_items =
            buildDenseItems(cfg_, ls);
        Cycles dense_total;
        if (pipelined) {
            const sim::PipelineStats ds = pm.run(dense_items);
            dense_total = ds.totalCycles;
            rs.pipeline += ds;
        } else {
            std::vector<sim::TileCost> dense_tiles;
            dense_tiles.reserve(dense_items.size());
            for (const sim::PipeItem &it : dense_items)
                dense_tiles.push_back(sim::analyticTile(it, dram));
            dense_total = sim::doubleBufferedCycles(dense_tiles);
        }
        Cycles dense_compute = 0;
        for (const sim::PipeItem &it : dense_items)
            dense_compute += sim::itemComputeCycles(it);
        total += dense_total;
        compute += dense_compute;
        macs += db.projMacs + db.encodeMacs + db.outProjMacs +
                db.mlpMacs;
        rs.dramRead +=
            db.projLoadBytes + db.outProjBytes + db.mlpBytes;
        rs.dramWrite += db.projStoreBytes;
    }

    if (sched.endToEnd && sched.stemFlops > 0.0) {
        sim::PipeItem stem;
        stem.denserCycles = gemmCycles(cfg_, sched.stemMacs);
        if (pipelined) {
            const sim::PipelineStats ss = pm.run({stem});
            total += ss.totalCycles;
            rs.pipeline += ss;
        } else {
            total += stem.denserCycles;
        }
        compute += stem.denserCycles;
        macs += sched.stemMacs;
    }

    rs.cycles = total;
    rs.seconds = cyclesToSeconds(total, cfg_.freqGhz);
    rs.computeSeconds = cyclesToSeconds(compute, cfg_.freqGhz);
    rs.preprocessSeconds = cyclesToSeconds(preprocess, cfg_.freqGhz);
    rs.dataMoveSeconds =
        rs.seconds - rs.computeSeconds - rs.preprocessSeconds;
    rs.macs = macs;

    // Coarse SRAM activity: operands enjoy ~4x reuse out of the
    // buffers; results write back once per 8-MAC line.
    rs.sramRead = static_cast<Bytes>(
        static_cast<double>(macs) * 2.0 * eb / 4.0);
    rs.sramWrite = static_cast<Bytes>(
        static_cast<double>(macs) * eb / 8.0);

    const sim::EnergyModel em(cfg_.energy);
    rs.energy = em.compute(macs, rs.sramRead, rs.sramWrite,
                           rs.dramTotal(), total);
    const size_t all_macs =
        cfg_.macArray.macLines * cfg_.macArray.macsPerLine;
    const double offered = static_cast<double>(total) *
                           static_cast<double>(all_macs);
    rs.utilization =
        offered > 0 ? static_cast<double>(macs) / offered : 0.0;

    if (pipelined) {
        auto &m = obs::metrics();
        m.counter("vitcod_sim_pipelined_runs_total",
                  "Schedules priced by the pipelined simulator")
            .inc();
        m.counter("vitcod_sim_pipeline_events_total",
                  "Events processed by the pipelined simulator")
            .inc(rs.pipeline.events);
        m.counter("vitcod_sim_pipeline_fetch_stall_cycles_total",
                  "Fetch-stage stall cycles (FIFO backpressure and "
                  "operand-bank gating)")
            .inc(rs.pipeline.fetch.stall);
        m.counter("vitcod_sim_pipeline_denser_stall_cycles_total",
                  "Denser-engine stall cycles (operand starvation, "
                  "join imbalance, output blocking)")
            .inc(rs.pipeline.denser.stall);
        m.counter("vitcod_sim_pipeline_sparser_stall_cycles_total",
                  "Sparser-engine stall cycles (operand starvation, "
                  "join imbalance, output blocking)")
            .inc(rs.pipeline.sparser.stall);
    }
    return rs;
}

RunStats
ViTCoDAccelerator::runSchedule(
    const core::schedule::ModelSchedule &sched,
    sim::SimMode mode) const
{
    VITCOD_ASSERT(sched.params == scheduleParams(cfg_),
                  "schedule was built for different hardware");
    return finalize(sched, mode);
}

RunStats
ViTCoDAccelerator::runAttention(const core::ModelPlan &plan) const
{
    const core::schedule::ScheduleBuilder builder(
        {.hw = scheduleParams(cfg_), .buildLayouts = false});
    return finalize(builder.build(plan, /*end_to_end=*/false),
                    sim::SimMode::Analytic);
}

RunStats
ViTCoDAccelerator::runEndToEnd(const core::ModelPlan &plan) const
{
    const core::schedule::ScheduleBuilder builder(
        {.hw = scheduleParams(cfg_), .buildLayouts = false});
    return finalize(builder.build(plan, /*end_to_end=*/true),
                    sim::SimMode::Analytic);
}

} // namespace vitcod::accel
