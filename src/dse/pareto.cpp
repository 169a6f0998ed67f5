#include "dse/pareto.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.h"

namespace vitcod::dse {

std::string
WorkloadSpec::str() const
{
    std::ostringstream oss;
    oss << model << '/' << sparsity << '/' << (useAe ? "ae" : "noae")
        << '/' << (endToEnd ? "e2e" : "attn") << '*' << weight;
    return oss.str();
}

bool
dominates(const Objectives &a, const Objectives &b)
{
    const bool no_worse = a.latencySeconds <= b.latencySeconds &&
                          a.energyJoules <= b.energyJoules &&
                          a.areaMm2 <= b.areaMm2;
    const bool better = a.latencySeconds < b.latencySeconds ||
                        a.energyJoules < b.energyJoules ||
                        a.areaMm2 < b.areaMm2;
    return no_worse && better;
}

HwPoint
HwPoint::of(const accel::ViTCoDConfig &cfg)
{
    HwPoint p;
    p.macLines = cfg.macArray.macLines;
    p.macsPerLine = cfg.macArray.macsPerLine;
    p.aeLines = cfg.aeLines;
    p.sparserLineFrac = cfg.sparserLineFrac;
    p.qkvBufBytes = cfg.qkvBufBytes;
    p.sBufferBytes = cfg.sBufferBytes;
    p.bandwidthGBps = cfg.dram.bandwidthGBps;
    p.pipeFifoDepth = cfg.pipeline.fetchFifoDepth;
    p.pipeStageLatency = cfg.pipeline.fetchLatency;
    return p;
}

accel::ViTCoDConfig
HwPoint::apply(accel::ViTCoDConfig base) const
{
    base.macArray.macLines = macLines;
    base.macArray.macsPerLine = macsPerLine;
    base.aeLines = aeLines;
    base.sparserLineFrac = sparserLineFrac;
    base.qkvBufBytes = qkvBufBytes;
    base.sBufferBytes = sBufferBytes;
    base.dram.bandwidthGBps = bandwidthGBps;
    base.pipeline.fetchFifoDepth = pipeFifoDepth;
    base.pipeline.writebackFifoDepth = pipeFifoDepth;
    base.pipeline.fetchLatency = pipeStageLatency;
    base.pipeline.denserLatency = pipeStageLatency;
    base.pipeline.sparserLatency = pipeStageLatency;
    base.pipeline.writebackLatency = pipeStageLatency;
    return base;
}

namespace {

/** Deterministic total order: latency, then area, energy, index. */
bool
pointLess(const DsePoint &a, const DsePoint &b)
{
    if (a.obj.latencySeconds != b.obj.latencySeconds)
        return a.obj.latencySeconds < b.obj.latencySeconds;
    if (a.obj.areaMm2 != b.obj.areaMm2)
        return a.obj.areaMm2 < b.obj.areaMm2;
    if (a.obj.energyJoules != b.obj.energyJoules)
        return a.obj.energyJoules < b.obj.energyJoules;
    return a.index < b.index;
}

} // namespace

bool
ParetoFrontier::insert(const DsePoint &p)
{
    for (const DsePoint &q : points_) {
        if (dominates(q.obj, p.obj) || q == p)
            return false;
    }
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [&](const DsePoint &q) {
                                     return dominates(p.obj, q.obj);
                                 }),
                  points_.end());
    points_.insert(std::upper_bound(points_.begin(), points_.end(), p,
                                    pointLess),
                   p);
    return true;
}

const DsePoint &
ParetoFrontier::bestLatency() const
{
    VITCOD_ASSERT(!points_.empty(), "empty frontier");
    return points_.front();
}

bool
ParetoFrontier::nonDominated(const Objectives &obj) const
{
    for (const DsePoint &q : points_)
        if (dominates(q.obj, obj))
            return false;
    return true;
}

// -------------------------------------------------- JSON/CSV output

namespace {

constexpr const char *kFormat = "vitcod-dse-frontier";
constexpr uint64_t kVersion = 1;

/** Shortest-exact double form (17 significant digits round-trip). */
std::string
numStr(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
               << "0123456789abcdef"[c & 0xf];
        else
            os << c;
    }
    os << '"';
}

} // namespace

void
ParetoFrontier::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"format\": \"" << kFormat << "\",\n";
    os << "  \"version\": " << kVersion << ",\n";
    // Format v1 provenance keys: the explorer's one search is
    // exhaustive and unseeded.
    os << "  \"algorithm\": \"exhaustive\",\n";
    os << "  \"seed\": 0,\n";
    os << "  \"evaluated\": " << evaluated << ",\n";
    os << "  \"workloads\": [";
    for (size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSpec &w = workloads[i];
        os << (i ? ",\n    " : "\n    ") << "{\"model\": ";
        writeEscaped(os, w.model);
        os << ", \"sparsity\": " << numStr(w.sparsity)
           << ", \"use_ae\": " << (w.useAe ? "true" : "false")
           << ", \"end_to_end\": " << (w.endToEnd ? "true" : "false")
           << ", \"weight\": " << numStr(w.weight) << '}';
    }
    os << (workloads.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"points\": [";
    for (size_t i = 0; i < points_.size(); ++i) {
        const DsePoint &p = points_[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"index\": " << p.index << ", \"mac_lines\": "
           << p.hw.macLines << ", \"macs_per_line\": "
           << p.hw.macsPerLine << ", \"ae_lines\": " << p.hw.aeLines
           << ", \"sparser_frac\": " << numStr(p.hw.sparserLineFrac)
           << ", \"qkv_buf_bytes\": " << p.hw.qkvBufBytes
           << ", \"s_buf_bytes\": " << p.hw.sBufferBytes
           << ", \"bandwidth_gbps\": " << numStr(p.hw.bandwidthGBps)
           << ", \"pipe_fifo_depth\": " << p.hw.pipeFifoDepth
           << ", \"pipe_stage_latency\": " << p.hw.pipeStageLatency
           << ", \"latency_s\": " << numStr(p.obj.latencySeconds)
           << ", \"energy_j\": " << numStr(p.obj.energyJoules)
           << ", \"area_mm2\": " << numStr(p.obj.areaMm2) << '}';
    }
    os << (points_.empty() ? "]" : "\n  ]") << "\n}\n";
}

void
ParetoFrontier::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeJson(os);
    if (!os)
        fatal("write to '", path, "' failed");
}

void
ParetoFrontier::writeCsv(std::ostream &os) const
{
    os << "index,mac_lines,macs_per_line,ae_lines,sparser_frac,"
          "qkv_buf_bytes,s_buf_bytes,bandwidth_gbps,pipe_fifo_depth,"
          "pipe_stage_latency,latency_s,energy_j,area_mm2\n";
    for (const DsePoint &p : points_) {
        os << p.index << ',' << p.hw.macLines << ','
           << p.hw.macsPerLine << ',' << p.hw.aeLines << ','
           << numStr(p.hw.sparserLineFrac) << ',' << p.hw.qkvBufBytes
           << ',' << p.hw.sBufferBytes << ','
           << numStr(p.hw.bandwidthGBps) << ',' << p.hw.pipeFifoDepth
           << ',' << p.hw.pipeStageLatency << ','
           << numStr(p.obj.latencySeconds) << ','
           << numStr(p.obj.energyJoules) << ','
           << numStr(p.obj.areaMm2) << '\n';
    }
}

void
ParetoFrontier::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeCsv(os);
    if (!os)
        fatal("write to '", path, "' failed");
}

} // namespace vitcod::dse
