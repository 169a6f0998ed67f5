#include "core/model_exec/exec_trace.h"

#include <ostream>

namespace vitcod::core::model_exec {

namespace {

constexpr const char *kMagic = "vitcod-exec-trace";
constexpr const char *kVersion = "v4";

} // namespace

double
LayerTrace::seconds() const
{
    return qkvSeconds + attnSeconds + projSeconds + mlpSeconds;
}

void
ExecTrace::write(std::ostream &os) const
{
    os << kMagic << ' ' << kVersion << '\n';
    os << "model " << model << '\n';
    os << "batch " << batch << '\n';
    os << "total_macs " << totalMacs << '\n';
    for (const auto &[name, member] : linalg::engine::dispatchStatsFields())
        os << "dispatch " << name << ' ' << dispatch.*member << '\n';
    os << "layers " << layers.size() << '\n';
    for (const LayerTrace &l : layers) {
        os << "layer " << l.layer << " tokens " << l.tokens
           << " heads " << l.heads << " head_dim " << l.headDim
           << " embed_dim " << l.embedDim << " macs " << l.macs
           << '\n';
        // Explicit count: heads above is the layer shape; only a
        // default-constructed trace has no records below.
        os << "head_traces " << l.headTraces.size() << '\n';
        for (const HeadTrace &h : l.headTraces)
            os << "head " << h.head << " nnz " << h.maskNnz
               << " global " << h.numGlobalTokens << '\n';
    }
}

} // namespace vitcod::core::model_exec
