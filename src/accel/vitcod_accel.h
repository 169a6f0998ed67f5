/**
 * @file
 * Cycle-level simulator of the ViTCoD accelerator (paper Sec. V):
 *
 *  - Two-pronged micro-architecture: a *denser engine* processes the
 *    global-token columns (plus all dense GEMMs) and a *sparser
 *    engine* walks CSC-indexed nonzeros; MAC lines are allocated
 *    between them proportionally to the statically-known workload
 *    split (Sec. V-B1).
 *  - K-stationary SDDMM dataflow with inter-PE accumulation,
 *    output-stationary SpMM with intra-PE accumulation (Fig. 13),
 *    with a reconfiguration event between the phases.
 *  - On-chip encoder/decoder engines exploit the AE module: Q/K
 *    travel compressed (c/h of their size); decoding overlaps the
 *    DRAM streams, encoding overlaps Q/K/V generation (Sec. V-B2).
 *  - Query-based Q forwarding: while the denser engine streams every
 *    Q row for its global columns, the sparser engine snoops that
 *    buffer instead of re-fetching from DRAM. Plans without global
 *    tokens (the pruning-only ablation) lose the forwarding and pay
 *    for gathers, modeled with an exact LRU walk of the CSC stream.
 *  - Memory system: 76.8 GB/s DDR4 behind burst quantization; SRAM
 *    budgets of the paper's 320 KB floorplan; attention maps that
 *    outgrow the S buffer spill to DRAM.
 */

#ifndef VITCOD_ACCEL_VITCOD_ACCEL_H
#define VITCOD_ACCEL_VITCOD_ACCEL_H

#include <string>
#include <vector>

#include "accel/device.h"
#include "core/schedule/builder.h"
#include "core/schedule/schedule.h"
#include "sim/dram.h"
#include "sim/energy.h"
#include "sim/mac_array.h"
#include "sim/pipeline_model.h"

namespace vitcod::accel {

/** Hardware configuration (defaults = paper Sec. VI-A). */
struct ViTCoDConfig
{
    std::string name = "ViTCoD";

    sim::MacArrayConfig macArray{64, 8}; //!< 512 MACs
    double freqGhz = 0.5;
    sim::DramConfig dram{};              //!< 76.8 GB/s DDR4-2400
    sim::EnergyConfig energy{};

    /** @name SRAM budgets (paper: 320 KB total)
     *  @{ */
    Bytes qkvBufBytes = 128 * 1024; //!< Q/K/S/V or input buffer
    Bytes idxBufBytes = 20 * 1024;  //!< CSC index buffer
    Bytes outBufBytes = 108 * 1024; //!< output buffer
    Bytes weightBufBytes = 64 * 1024;
    /** S working set allowed before spilling to DRAM. */
    Bytes sBufferBytes = 96 * 1024;
    /** @} */

    size_t elemBytes = 2;  //!< activation/weight element size
    size_t indexBytes = 1; //!< CSC row index size

    /** Exponent/normalize lanes per engine (softmax unit). */
    size_t softmaxLanesPerEngine = 16;

    /** Pipeline overhead per sparser-engine column (index decode). */
    Cycles colOverheadCycles = 2;

    /** Cycles to switch a line between inter-/intra-PE accumulation. */
    Cycles reconfigCycles = 16;

    /**
     * Dedicated MAC lines of the on-chip encoder/decoder engines
     * (paper Fig. 12/16: the en/decoders have their own MAC lines,
     * visible as a separate block in the floorplan). They run in
     * parallel with the denser/sparser engines; their MACs are
     * charged to the energy model like any other.
     */
    size_t aeLines = 16;

    /**
     * Decode throughput multiplier: the AE works on an 8-bit
     * quantized compressed representation, so its MAC units are
     * dual-pumped relative to the 16-bit main datapath.
     */
    double aeDecodeRate = 2.0;

    /** Efficiency of dense streaming on the denser engine. */
    double denseEff = 0.95;

    /** Efficiency of the reused array on GEMM (proj/MLP) phases. */
    double gemmEff = 0.90;

    /**
     * Static sparser-engine share of the MAC lines in (0, 1) —
     * the denser/sparser PE-split axis the design-space explorer
     * (src/dse/) sweeps. 0 (default) keeps the dynamic
     * workload-proportional allocation of paper Sec. V-B1.
     */
    double sparserLineFrac = 0.0;

    /** @name Feature toggles (ablations)
     *  @{ */
    bool twoPronged = true;      //!< false: single monolithic engine
    bool enableAeEngines = true; //!< false: Q/K move uncompressed
    /**
     * NLP mode (paper Sec. VI-B "Discussion of NLP Models"): charge
     * a Sanger-style on-the-fly mask-prediction pass per layer.
     */
    bool dynamicMaskPrediction = false;
    /** Low-precision factor of the prediction pass (4-bit ~ 1/4). */
    double predictionCostFactor = 0.25;
    /** @} */

    /**
     * Knobs of the pipelined mode (FIFO depths, chunk
     * granularity, per-stage latency adders; see
     * sim/pipeline_model.h and docs/SIMULATOR.md). Pricing-only:
     * they never change the static schedule, so the DSE explorer
     * sweeps them against memoized schedules for free.
     */
    sim::PipelineConfig pipeline;
};

/** Per-layer attention phase detail, exposed for tests/benches. */
struct LayerAttentionStats
{
    Cycles total = 0;
    Cycles sddmmCompute = 0;
    Cycles softmaxCompute = 0;
    Cycles spmmCompute = 0;
    Cycles exposedMemory = 0;  //!< total - sum of compute phases
    Cycles prediction = 0;     //!< dynamic-mask NLP mode only
    /** Engine workload: the denser region is stored/processed
     *  densely, so this counts all n x N_gt entries plus the
     *  sparser nonzeros (what the datapath streams and energy
     *  pays for). */
    MacOps attentionMacs = 0;
    /** Mask-nonzero subset of attentionMacs: what a value-level
     *  execution (ModelExecutor) performs. The difference is the
     *  denser region's zero padding. */
    MacOps executedMacs = 0;
    MacOps decodeMacs = 0;
    Bytes dramRead = 0;
    Bytes dramWrite = 0;
    Bytes sddmmRead = 0; //!< Q/K/index bytes of the SDDMM phase
    size_t denserLines = 0;
    size_t sparserLines = 0;
    uint64_t qGatherMisses = 0; //!< sparser-engine Q misses (no fwd)
    /** Per-stage busy/stall/idle accounting of the layer; only
     *  populated when priced under SimMode::Pipelined. */
    sim::PipelineStats pipe;
};

/** @name Static schedule math
 * The derivations themselves live in core::schedule (the Schedule
 * IR owns the static schedule); re-exported here for the accel API
 * and its existing tests.
 * @{ */
using core::schedule::allocateEngineLines;
using core::schedule::sparserEngineCycles;
using core::schedule::sparserHeadCycles;
/** @} */

/**
 * The schedule-relevant subset of @p cfg as the Schedule IR's
 * hardware parameters (DRAM/energy pricing knobs stay behind in the
 * accelerator config — they do not change the static schedule).
 */
core::schedule::HardwareParams
scheduleParams(const ViTCoDConfig &cfg);

/** The ViTCoD accelerator simulator. */
class ViTCoDAccelerator : public Device
{
  public:
    explicit ViTCoDAccelerator(ViTCoDConfig cfg = {});

    const ViTCoDConfig &config() const { return cfg_; }

    std::string name() const override { return cfg_.name; }

    RunStats runAttention(const core::ModelPlan &plan) const override;
    RunStats runEndToEnd(const core::ModelPlan &plan) const override;

    /**
     * Price a prebuilt schedule (attention-only or end-to-end per
     * its endToEnd flag). The schedule must have been built with
     * scheduleParams(config()) — the static decisions baked into it
     * are only meaningful for the hardware they were derived for.
     * @param mode Analytic prices with the closed-form
     *   double-buffering recurrence; Pipelined plays the same work
     *   items through the finite-FIFO stage graph
     *   (sim/pipeline_model.h), surfacing stall/backpressure cycles
     *   in RunStats::pipeline.
     */
    RunStats runSchedule(const core::schedule::ModelSchedule &sched,
                         sim::SimMode mode =
                             sim::SimMode::Analytic) const;

    /** Detailed simulation of one layer's attention. */
    LayerAttentionStats
    simulateAttentionLayer(const core::ModelPlan &plan,
                           size_t layer) const;

    /** Price one layer's attention schedule. */
    LayerAttentionStats priceAttentionLayer(
        const core::schedule::LayerSchedule &ls,
        sim::SimMode mode = sim::SimMode::Analytic) const;

  private:
    /** Price a whole schedule into RunStats. */
    RunStats finalize(const core::schedule::ModelSchedule &sched,
                      sim::SimMode mode) const;

    ViTCoDConfig cfg_;
};

} // namespace vitcod::accel

#endif // VITCOD_ACCEL_VITCOD_ACCEL_H
