/**
 * @file
 * The hardware design space the explorer searches (paper Sec. VI:
 * the accelerator evaluation sweeps PE allocations, SRAM budgets and
 * bandwidths around the chosen 64-line / 320 KB / 76.8 GB/s point).
 * A HwConfigSpace is a small grid: one value list per swept
 * accelerator knob, every non-swept knob taken from a base
 * ViTCoDConfig. Points are addressed by a single mixed-radix index
 * so the explorer can walk the space without materializing it.
 *
 * The area proxy turns a configuration into a silicon-cost scalar
 * (mm^2-like units from published 28 nm-class densities) so the
 * explorer can trade latency and energy against hardware cost; see
 * docs/DSE.md for the exact formula and constants.
 */

#ifndef VITCOD_DSE_DESIGN_SPACE_H
#define VITCOD_DSE_DESIGN_SPACE_H

#include <cstddef>
#include <vector>

#include "accel/vitcod_accel.h"
#include "common/units.h"

namespace vitcod::dse {

/**
 * Area-proxy constants, 28 nm-class: a 16-bit MAC (datapath +
 * pipeline registers) near 700 um^2, dense SRAM near 0.6 um^2/bit,
 * and a PHY/controller share that scales with off-chip bandwidth.
 * Absolute mm^2 are a proxy, not a layout; ratios between
 * configurations are the meaningful output (same contract as the
 * energy model, sim/energy.h).
 */
struct AreaModel
{
    double macUm2 = 700.0;        //!< per MAC unit (engines + AE)
    double sramUm2PerByte = 4.8;  //!< 0.6 um^2/bit dense SRAM
    double ioUm2PerGBps = 5000.0; //!< DRAM PHY + controller share

    bool operator==(const AreaModel &) const = default;
};

/**
 * Area proxy of one accelerator configuration in mm^2-like units:
 * MAC units (denser/sparser engines plus the AE en/decoder lines),
 * every on-chip buffer of the floorplan (Q/K/S/V, index, output,
 * weight and the S-score region), and the bandwidth-proportional
 * I/O share.
 */
double areaProxyMm2(const accel::ViTCoDConfig &cfg,
                    const AreaModel &model = {});

/**
 * The swept grid. Each axis is a non-empty list of candidate values
 * for one ViTCoDConfig knob; the cartesian product (minus points
 * rejected by valid()) is the search space. Axis order is fixed and
 * public: it is the digit order of the mixed-radix index.
 */
struct HwConfigSpace
{
    /** @name Axes, in digit order (index 0 varies fastest)
     *  @{ */
    std::vector<size_t> macLines = {64};      //!< engine MAC lines
    std::vector<size_t> macsPerLine = {8};    //!< MACs per line
    std::vector<size_t> aeLines = {16};       //!< AE en/decoder lines
    std::vector<double> sparserLineFrac = {0.0}; //!< PE split (0 = dynamic)
    std::vector<Bytes> qkvBufBytes = {128 * 1024};
    std::vector<Bytes> sBufferBytes = {96 * 1024};
    std::vector<double> bandwidthGBps = {76.8}; //!< off-chip GB/s
    /** Inter-stage FIFO depth (chunks) of the pipelined model; sets
     *  both the fetch and writeback FIFOs. Only the Pipelined
     *  objective mode (ExplorerConfig::simMode) reacts to it —
     *  pricing-only, so schedules memoize across the axis. */
    std::vector<size_t> pipeFifoDepth = {64};
    /** Per-stage latency adder (cycles) of the pipelined model;
     *  applied to all four stages. Pricing-only, like the depth. */
    std::vector<Cycles> pipeStageLatency = {0};
    /** @} */

    /** Every non-swept knob (frequency, energy, DRAM timing, ...). */
    accel::ViTCoDConfig base;

    /** Number of axes (digits) of the mixed-radix index. */
    static constexpr size_t kAxes = 9;

    /** Candidate count of one axis. @pre axis < kAxes. */
    size_t axisSize(size_t axis) const;

    /** Total grid size: the product of all axis sizes. */
    size_t size() const;

    /** Mixed-radix digits of @p index. @pre index < size(). */
    std::vector<size_t> decode(size_t index) const;

    /** Inverse of decode(). @pre digits[a] < axisSize(a). */
    size_t encode(const std::vector<size_t> &digits) const;

    /** Materialize point @p index onto the base configuration. */
    accel::ViTCoDConfig configAt(size_t index) const;

    /**
     * Structural feasibility of point @p index: the AE engines must
     * leave MAC lines for the denser/sparser engines (the
     * ViTCoDAccelerator constructor enforces the same), and every
     * count/capacity must be nonzero. The explorer skips invalid
     * points.
     */
    bool valid(size_t index) const;

    /**
     * Sanity-check the axis lists themselves (non-empty, values
     * positive, fractions inside [0, 1)); fatal() on violation.
     * Explorers call this once up front.
     */
    void validate() const;

    /**
     * The default exploration grid around the paper's design point:
     * 4 MAC-line counts x 2 AE allocations x 3 PE splits x 3 Q/K/V
     * buffers x 3 S budgets x 4 bandwidths (~1.7k points).
     */
    static HwConfigSpace defaultSpace();

    /** A 2x2x2 subset of defaultSpace() for CI smoke runs. */
    static HwConfigSpace smokeSpace();
};

} // namespace vitcod::dse

#endif // VITCOD_DSE_DESIGN_SPACE_H
