/**
 * @file
 * The Schedule IR (paper Fig. 14, "one-time compilation cost for
 * each task"): everything that is statically derivable from a
 * `(ModelPlan, mask)` pair — the denser/sparser workload split, MAC
 * line allocations, CSC walk order, per-phase byte streams, SRAM
 * window/spill plan and exact MAC counts — captured once by the
 * ScheduleBuilder and then consumed by *all three* execution stacks:
 *
 *   - the instruction compiler lowers a ModelSchedule to a Program,
 *   - the cycle-level simulator prices the same schedule analytically,
 *   - the ModelExecutor/KernelEngine run real kernels in the
 *     schedule's visit order through its prebuilt mask layouts.
 *
 * Because every consumer reads the same numbers, the compiler agrees
 * with the simulator cycle-for-cycle and the runtime's executed MACs
 * equal the simulator's priced MACs by construction — the three-way
 * invariant tests/schedule/ pins.
 *
 * Schedules serialize to a line-oriented text document (write/read)
 * with a golden fixture under tests/data/, same --update-goldens
 * flow as ExecTrace.
 */

#ifndef VITCOD_CORE_SCHEDULE_SCHEDULE_H
#define VITCOD_CORE_SCHEDULE_SCHEDULE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/schedule/workload.h"
#include "core/split_conquer.h"
#include "linalg/engine/engine.h"
#include "sparse/formats.h"

namespace vitcod::core::schedule {

/**
 * The hardware parameters the *static* schedule depends on — a
 * mirror of the scheduling-relevant subset of accel::ViTCoDConfig
 * (defaults = paper Sec. VI-A). Cycle pricing knobs that do not
 * change the schedule itself (DRAM timing, energy) stay in the
 * accelerator config; `accel::scheduleParams()` converts.
 */
struct HardwareParams
{
    size_t macLines = 64;        //!< engine MAC lines (denser+sparser)
    size_t macsPerLine = 8;      //!< MAC units per line
    size_t elemBytes = 2;        //!< activation/weight element size
    size_t indexBytes = 1;       //!< CSC row-index size
    Bytes qkvBufBytes = 128 * 1024; //!< Q/K/S/V (or input) buffer
    Bytes sBufferBytes = 96 * 1024; //!< S working set before spilling
    size_t aeLines = 16;         //!< dedicated AE en/decoder lines
    double aeDecodeRate = 2.0;   //!< AE throughput multiplier (8-bit)
    size_t softmaxLanesPerEngine = 16; //!< exp/normalize lanes
    Cycles colOverheadCycles = 2;  //!< per-CSC-column index decode
    Cycles reconfigCycles = 16;    //!< inter-/intra-PE accumulation switch
    double denseEff = 0.95;      //!< denser-engine streaming efficiency
    double gemmEff = 0.90;       //!< reused-array GEMM efficiency
    bool twoPronged = true;      //!< false: single monolithic engine
    bool enableAeEngines = true; //!< false: Q/K move uncompressed
    bool dynamicMaskPrediction = false; //!< NLP on-the-fly mask mode
    double predictionCostFactor = 0.25; //!< low-precision factor of it

    /**
     * Static sparser-engine share of the MAC lines in (0, 1); the
     * design-space explorer sweeps this denser/sparser PE split.
     * 0 (the default) keeps the dynamic proportional allocation of
     * paper Sec. V-B1. Ignored when a phase has work on only one
     * engine (that engine then takes the whole array, matching the
     * dynamic allocator's behavior).
     */
    double sparserLineFrac = 0.0;

    bool operator==(const HardwareParams &) const = default;
};

/**
 * Compressed visit-order layout of one head's *full* pruned mask
 * (linalg::engine::buildMaskLayout's output). This is what the
 * KernelEngine executes from directly — the mask is scanned exactly
 * once, at schedule build.
 */
using HeadLayout = linalg::engine::MaskLayout;

/** One (layer, head) attention schedule. */
struct HeadSchedule
{
    size_t head = 0;
    size_t tokens = 0;
    size_t headDim = 0;
    size_t numGlobalTokens = 0; //!< N_gt fronted by the reordering
    size_t denserNnz = 0;       //!< nonzeros in the global columns
    size_t sparserNnz = 0;      //!< nonzeros walked via CSC
    MacOps denserMacs = 0;      //!< n * N_gt * dk (per phase)
    MacOps sparserMacs = 0;     //!< sparserNnz * dk (per phase)
    Bytes idxBytes = 0;         //!< CSC index stream -> IdxBuf
    uint64_t qGatherMisses = 0; //!< LRU gathers (no Q forwarding)
    HeadLayout layout;          //!< runtime visit order

    /** Total mask nonzeros (denser + sparser partition). */
    size_t maskNnz() const { return denserNnz + sparserNnz; }

    bool operator==(const HeadSchedule &) const = default;
};

/** Dense (non-attention) phases of one layer, end-to-end scope. */
struct DenseBlockSchedule
{
    MacOps projMacs = 0;       //!< Q/K/V generation GEMM
    MacOps encodeMacs = 0;     //!< AE encoder (overlapped)
    MacOps outProjMacs = 0;
    MacOps mlpMacs = 0;
    Bytes projLoadBytes = 0;
    Bytes projStoreBytes = 0;  //!< Q/K compressed + V
    Bytes outProjBytes = 0;
    Bytes mlpBytes = 0;
    uint64_t lnElems = 0;      //!< 2 * n * d elementwise ops

    bool operator==(const DenseBlockSchedule &) const = default;
};

/** One layer's complete attention schedule. */
struct LayerSchedule
{
    size_t layer = 0;
    BlockShape shape; //!< tokens/heads/headDim/embedDim/mlpRatio

    /** @name AE compression state
     *  @{ */
    bool aeOn = false;
    double aeRatio = 1.0;      //!< compressed / heads
    size_t compressedHeads = 0;
    MacOps decodeMacs = 0;     //!< dedicated decoder engine work
    /** @} */

    /** @name Denser/sparser workload split (paper Sec. V-B1)
     *  @{ */
    MacOps denserSddmmMacs = 0;
    MacOps sparserSddmmMacs = 0;
    MacOps denserSpmmMacs = 0;
    MacOps sparserSpmmMacs = 0;
    uint64_t softmaxElems = 0; //!< stored scores (denser + sparser)
    /** @} */

    /** @name MAC-line allocation and static sparser-engine cost
     *  @{ */
    size_t sddmmDenserLines = 0;
    size_t sddmmSparserLines = 0;
    size_t spmmDenserLines = 0;
    size_t spmmSparserLines = 0;
    Cycles sddmmSparserCycles = 0; //!< at the SDDMM allocation
    Cycles spmmSparserCycles = 0;  //!< at the SpMM allocation
    /** @} */

    /** @name SRAM buffer plan + DRAM streams
     *  @{ */
    size_t windowRows = 0;     //!< resident Q rows per head
    Bytes idxBytes = 0;        //!< summed CSC index bytes
    Bytes qkLoadBytes = 0;     //!< Q + K streams (AE-compressed)
    uint64_t gatherMisses = 0; //!< summed LRU Q gathers
    Bytes gatherRowBytes = 0;  //!< bytes per gathered row
    Bytes sBytes = 0;          //!< stored score bytes
    Bytes spillBytes = 0;      //!< S overflow past the S buffer
    Bytes vLoadBytes = 0;      //!< V stream + S spill re-read
    Bytes outStoreBytes = 0;   //!< V' stream + S spill write
    /** @} */

    /** @name Dynamic-mask prediction (NLP mode)
     *  @{ */
    MacOps predictMacs = 0;
    Cycles predictOverhead = 0;
    /** @} */

    /** Exact matmul MACs the runtime executes for this layer. */
    BlockMacs execMacs;

    DenseBlockSchedule dense; //!< populated when endToEnd
    std::vector<HeadSchedule> heads;

    /** Total attention-phase MACs (SDDMM + SpMM, both engines). */
    MacOps attentionMacs() const
    {
        return denserSddmmMacs + sparserSddmmMacs + denserSpmmMacs +
               sparserSpmmMacs;
    }
};

/** The whole model's compiled schedule. */
struct ModelSchedule
{
    std::string modelName;
    HardwareParams params;
    bool endToEnd = false;
    MacOps stemMacs = 0;       //!< conv stem as one GEMM (e2e)
    double stemFlops = 0.0;    //!< for breakdown() parity
    std::vector<LayerSchedule> layers;

    /** Attention MACs summed over layers. */
    MacOps attentionMacs() const;

    /** Runtime matmul MACs summed over layers (no stem/classifier). */
    MacOps execMacs() const;

    /**
     * Fig. 4 op-group breakdown derived from the schedule: the same
     * totals model::modelBreakdown computes analytically, but at the
     * masks' *actual* nonzero counts.
     */
    model::Breakdown breakdown() const;

    /** @name Text serialization (same flow as ExecTrace)
     *  @{ */
    void write(std::ostream &os) const;
    void writeFile(const std::string &path) const;
    static ModelSchedule read(std::istream &is);
    static ModelSchedule readFile(const std::string &path);
    /** @} */
};

/**
 * Everything-compared equality (layouts included); doubles compare
 * exactly, which round-trips through write/read at 17 significant
 * digits. On mismatch returns false and describes the first
 * difference in @p why (when non-null).
 */
bool structurallyEqual(const ModelSchedule &a, const ModelSchedule &b,
                       std::string *why = nullptr);

/** @name Static schedule math (shared by builder, simulator, tests)
 *  @{ */

/**
 * Largest-remainder integer allocation of @p total MAC lines
 * proportional to @p weights (floor of 1 for nonzero weights).
 */
std::vector<size_t> allocateEngineLines(
    const std::vector<double> &weights, size_t total);

/**
 * Sparser-engine cost of one head: walk the CSC columns, each
 * costing ceil(nnz_c * dk / (lines * macs_per_line)) plus the
 * per-column index-decode overhead.
 */
Cycles sparserHeadCycles(const sparse::Csc &csc, size_t head_dim,
                         size_t lines, size_t macs_per_line,
                         Cycles col_overhead);

/**
 * Whole sparser-engine cost for a layer: allocate @p lines across
 * the active heads proportional to their nonzeros (or LPT-pack heads
 * onto lines when heads outnumber lines) and take the slowest head.
 */
Cycles sparserEngineCycles(
    const std::vector<const core::SparseAttentionPlan *> &heads,
    size_t head_dim, size_t lines, size_t macs_per_line,
    Cycles col_overhead);

/**
 * Exact LRU simulation of sparser-engine Q-row residency over a CSC
 * nonzero stream: DRAM gathers needed with an on-chip window of
 * @p window_rows Q rows.
 */
uint64_t lruQMisses(const sparse::Csc &csc, size_t window_rows);

/** @} */

} // namespace vitcod::core::schedule

#endif // VITCOD_CORE_SCHEDULE_SCHEDULE_H
