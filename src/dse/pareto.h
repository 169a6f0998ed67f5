/**
 * @file
 * Result currency of the design-space explorer: objective vectors
 * (simulated latency / energy proxy / area proxy, all minimized),
 * evaluated design points, and the Pareto frontier they form. The
 * frontier is written to JSON (17-significant-digit doubles, bytes
 * pinned by the golden-fixture test) and to CSV for spreadsheet/plot
 * consumption; the format is documented in docs/DSE.md. Nothing
 * reads these files back: a search result reaches a server in memory,
 * as a config (see HwPoint::apply()).
 */

#ifndef VITCOD_DSE_PARETO_H
#define VITCOD_DSE_PARETO_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dse/design_space.h"

namespace vitcod::dse {

/**
 * One workload of the tuning bundle: the task identity the
 * algorithm pipeline is deterministic in, plus a weight for the
 * bundle-aggregated objectives.
 */
struct WorkloadSpec
{
    std::string model = "DeiT-Tiny"; //!< model::modelByName() name
    double sparsity = 0.9;  //!< attention-mask target sparsity
    bool useAe = true;      //!< auto-encoder compression on?
    bool endToEnd = false;  //!< full inference vs core attention
    double weight = 1.0;    //!< share in the aggregated objectives

    bool operator==(const WorkloadSpec &) const = default;

    /** Human-readable "model/sparsity/ae/scope*weight" form. */
    std::string str() const;
};

/** Objective vector of one design point; every entry is minimized. */
struct Objectives
{
    double latencySeconds = 0.0; //!< weighted simulated latency
    double energyJoules = 0.0;   //!< weighted simulated energy
    double areaMm2 = 0.0;        //!< areaProxyMm2 of the config

    bool operator==(const Objectives &) const = default;
};

/**
 * Pareto dominance: @p a is no worse than @p b on every objective
 * and strictly better on at least one. Equal vectors dominate in
 * neither direction, so distinct configs with identical cost
 * coexist on a frontier.
 */
bool dominates(const Objectives &a, const Objectives &b);

/**
 * The swept knob values of one design point — exactly the fields a
 * HwConfigSpace varies, so a point is kept and written without
 * carrying the whole base configuration.
 */
struct HwPoint
{
    size_t macLines = 64;      //!< engine MAC lines
    size_t macsPerLine = 8;    //!< MAC units per line
    size_t aeLines = 16;       //!< AE en/decoder lines
    double sparserLineFrac = 0.0; //!< PE split (0 = dynamic)
    Bytes qkvBufBytes = 128 * 1024; //!< Q/K/S/V buffer budget
    Bytes sBufferBytes = 96 * 1024; //!< S spill threshold
    double bandwidthGBps = 76.8;    //!< off-chip bandwidth
    size_t pipeFifoDepth = 64;      //!< pipelined-mode FIFO depth
    Cycles pipeStageLatency = 0;    //!< pipelined-mode stage latency

    bool operator==(const HwPoint &) const = default;

    /** The swept knobs of @p cfg as a point. */
    static HwPoint of(const accel::ViTCoDConfig &cfg);

    /**
     * Materialize onto @p base (inverse of of() modulo base). This is
     * how a search result reaches serving:
     * `cfg.hw = r.frontier.bestLatency().hw.apply(cfg.hw)`.
     */
    accel::ViTCoDConfig apply(accel::ViTCoDConfig base = {}) const;
};

/** One evaluated design point. */
struct DsePoint
{
    size_t index = 0; //!< mixed-radix index in the explored space
    HwPoint hw;
    Objectives obj;

    bool operator==(const DsePoint &) const = default;
};

/**
 * The set of mutually non-dominated evaluated points, kept sorted
 * by (latency, area, energy, index) so every serialization and
 * comparison is deterministic. Also carries the provenance metadata
 * written into result files: the workload bundle and how many
 * unique points the search priced.
 */
class ParetoFrontier
{
  public:
    /** @name Provenance metadata (serialized, golden-compared)
     *  @{ */
    std::vector<WorkloadSpec> workloads;
    uint64_t evaluated = 0; //!< unique design points priced
    /** @} */

    /** Non-dominated points, sorted; empty() iff none inserted. */
    const std::vector<DsePoint> &points() const { return points_; }

    /**
     * Offer @p p to the frontier: rejected when an existing point
     * dominates it, otherwise inserted and every point it dominates
     * is dropped. The final set is the non-dominated subset of all
     * offered points regardless of offer order. Returns whether the
     * point was kept.
     */
    bool insert(const DsePoint &p);

    /** Point with the lowest latency. @pre !points().empty(). */
    const DsePoint &bestLatency() const;

    /** True iff no frontier point dominates @p obj. */
    bool nonDominated(const Objectives &obj) const;

    /** Everything-compared equality (metadata + points). */
    bool operator==(const ParetoFrontier &) const = default;

    /** @name JSON export (write-only, exact 17-digit doubles)
     *  @{ */
    void writeJson(std::ostream &os) const;
    void writeJsonFile(const std::string &path) const;
    /** @} */

    /** @name CSV export (write-only, one row per point)
     *  @{ */
    void writeCsv(std::ostream &os) const;
    void writeCsvFile(const std::string &path) const;
    /** @} */

  private:
    std::vector<DsePoint> points_;
};

} // namespace vitcod::dse

#endif // VITCOD_DSE_PARETO_H
