#include "core/schedule/schedule.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/logging.h"

namespace vitcod::core::schedule {

// --------------------------------------------------------- schedule math

std::vector<size_t>
allocateEngineLines(const std::vector<double> &weights, size_t total)
{
    const size_t k = weights.size();
    std::vector<size_t> lines(k, 0);
    double sum = 0.0;
    for (double w : weights)
        sum += w;
    if (sum <= 0.0 || total == 0)
        return lines;

    // Largest-remainder method with a floor of 1 for non-zero work.
    size_t given = 0;
    std::vector<double> frac(k, 0.0);
    for (size_t i = 0; i < k; ++i) {
        if (weights[i] <= 0.0)
            continue;
        const double exact =
            static_cast<double>(total) * weights[i] / sum;
        lines[i] = std::max<size_t>(1, static_cast<size_t>(exact));
        frac[i] = exact - std::floor(exact);
        given += lines[i];
    }
    // Trim if floors overshot (more busy heads than lines handled by
    // caller via grouping; here we only trim down to total).
    while (given > total) {
        size_t victim = k;
        for (size_t i = 0; i < k; ++i)
            if (lines[i] > 1 && (victim == k || lines[i] > lines[victim]))
                victim = i;
        if (victim == k)
            break; // all at 1 line; caller must group
        --lines[victim];
        --given;
    }
    // Distribute leftovers by largest fractional part.
    while (given < total) {
        size_t best = k;
        for (size_t i = 0; i < k; ++i)
            if (weights[i] > 0.0 && (best == k || frac[i] > frac[best]))
                best = i;
        if (best == k)
            break;
        ++lines[best];
        frac[best] = -1.0;
        ++given;
    }
    return lines;
}

Cycles
sparserHeadCycles(const sparse::Csc &csc, size_t head_dim,
                  size_t lines, size_t macs_per_line,
                  Cycles col_overhead)
{
    VITCOD_ASSERT(lines > 0 && macs_per_line > 0,
                  "sparser engine needs lines");
    Cycles cy = 0;
    for (size_t c = 0; c < csc.cols(); ++c) {
        const size_t nnz_c = csc.colNnz(c);
        if (nnz_c == 0)
            continue;
        const MacOps macs = static_cast<MacOps>(nnz_c) * head_dim;
        cy += ceilDiv(macs, lines * macs_per_line) + col_overhead;
    }
    return cy;
}

Cycles
sparserEngineCycles(
    const std::vector<const core::SparseAttentionPlan *> &heads,
    size_t head_dim, size_t lines, size_t macs_per_line,
    Cycles col_overhead)
{
    if (lines == 0)
        return 0;
    std::vector<double> weights;
    std::vector<const core::SparseAttentionPlan *> active;
    for (const auto *p : heads) {
        if (p->sparserNnz > 0) {
            weights.push_back(static_cast<double>(p->sparserNnz));
            active.push_back(p);
        }
    }
    if (active.empty())
        return 0;

    if (lines >= active.size()) {
        const auto alloc = allocateEngineLines(weights, lines);
        Cycles worst = 0;
        for (size_t i = 0; i < active.size(); ++i) {
            worst = std::max(
                worst,
                sparserHeadCycles(active[i]->sparserCsc, head_dim,
                                  std::max<size_t>(1, alloc[i]),
                                  macs_per_line, col_overhead));
        }
        return worst;
    }
    // More busy heads than lines: LPT-pack heads onto lines.
    std::vector<Cycles> per_head;
    per_head.reserve(active.size());
    for (const auto *p : active)
        per_head.push_back(sparserHeadCycles(p->sparserCsc, head_dim,
                                             1, macs_per_line,
                                             col_overhead));
    std::sort(per_head.rbegin(), per_head.rend());
    std::vector<Cycles> bins(lines, 0);
    for (Cycles c : per_head)
        *std::min_element(bins.begin(), bins.end()) += c;
    return *std::max_element(bins.begin(), bins.end());
}

uint64_t
lruQMisses(const sparse::Csc &csc, size_t window_rows)
{
    if (window_rows == 0)
        return csc.nnz();
    // Exact LRU over the column-major nonzero stream. Token counts
    // are a few hundred, so a linear-scan LRU list is fine.
    std::vector<uint32_t> lru; // front = most recent
    lru.reserve(window_rows);
    uint64_t misses = 0;
    for (size_t c = 0; c < csc.cols(); ++c) {
        for (uint32_t i = csc.colPtr()[c]; i < csc.colPtr()[c + 1];
             ++i) {
            const uint32_t row = csc.rowIdx()[i];
            auto it = std::find(lru.begin(), lru.end(), row);
            if (it != lru.end()) {
                lru.erase(it);
            } else {
                ++misses;
                if (lru.size() >= window_rows)
                    lru.pop_back();
            }
            lru.insert(lru.begin(), row);
        }
    }
    return misses;
}

// ------------------------------------------------------------- totals

MacOps
ModelSchedule::attentionMacs() const
{
    MacOps m = 0;
    for (const LayerSchedule &l : layers)
        m += l.attentionMacs();
    return m;
}

MacOps
ModelSchedule::execMacs() const
{
    MacOps m = 0;
    for (const LayerSchedule &l : layers)
        m += l.execMacs.total();
    return m;
}

model::Breakdown
ModelSchedule::breakdown() const
{
    model::Breakdown b{};
    for (const LayerSchedule &l : layers) {
        const model::Breakdown lb = blockBreakdown(
            l.shape, static_cast<double>(l.softmaxElems),
            params.elemBytes);
        for (size_t g = 0; g < lb.size(); ++g)
            b[g] += lb[g];
    }
    groupOf(b, model::OpGroup::Other) +=
        {stemFlops,
         stemFlops / 4.0 * static_cast<double>(params.elemBytes)};
    return b;
}

// ----------------------------------------------------------- document

namespace {

constexpr const char *kMagic = "vitcod-schedule";
constexpr const char *kVersion = "v2";

void
writeVec(std::ostream &os, const char *label,
         const std::vector<uint32_t> &v)
{
    os << label << ' ' << v.size();
    for (uint32_t x : v)
        os << ' ' << x;
    os << '\n';
}

} // namespace

void
ModelSchedule::write(std::ostream &os) const
{
    // 17 significant digits: every double prints exactly.
    const auto old_precision = os.precision(17);
    os << kMagic << ' ' << kVersion << '\n';
    os << "model " << modelName << '\n';
    os << "end_to_end " << endToEnd << '\n';
    os << "stem_macs " << stemMacs << '\n';
    os << "stem_flops " << stemFlops << '\n';
    const HardwareParams &p = params;
    os << "hw mac_lines " << p.macLines << " macs_per_line "
       << p.macsPerLine << " elem_bytes " << p.elemBytes
       << " index_bytes " << p.indexBytes << " qkv_buf "
       << p.qkvBufBytes << " s_buf " << p.sBufferBytes << " ae_lines "
       << p.aeLines << " ae_decode_rate " << p.aeDecodeRate
       << " softmax_lanes " << p.softmaxLanesPerEngine
       << " col_overhead " << p.colOverheadCycles << " reconfig "
       << p.reconfigCycles << " dense_eff " << p.denseEff
       << " gemm_eff " << p.gemmEff << " two_pronged " << p.twoPronged
       << " ae_engines " << p.enableAeEngines << " dyn_mask "
       << p.dynamicMaskPrediction << " pred_cost "
       << p.predictionCostFactor << " sparser_frac "
       << p.sparserLineFrac << '\n';
    os << "layers " << layers.size() << '\n';
    for (const LayerSchedule &l : layers) {
        os << "layer " << l.layer << " tokens " << l.shape.tokens
           << " heads " << l.shape.heads << " head_dim "
           << l.shape.headDim << " embed_dim " << l.shape.embedDim
           << " mlp_ratio " << l.shape.mlpRatio << '\n';
        os << "ae " << l.aeOn << " ratio " << l.aeRatio
           << " compressed " << l.compressedHeads << " decode_macs "
           << l.decodeMacs << '\n';
        os << "split sddmm_d " << l.denserSddmmMacs << " sddmm_s "
           << l.sparserSddmmMacs << " spmm_d " << l.denserSpmmMacs
           << " spmm_s " << l.sparserSpmmMacs << " softmax_elems "
           << l.softmaxElems << '\n';
        os << "lines sddmm_d " << l.sddmmDenserLines << " sddmm_s "
           << l.sddmmSparserLines << " spmm_d " << l.spmmDenserLines
           << " spmm_s " << l.spmmSparserLines << " sddmm_s_cycles "
           << l.sddmmSparserCycles << " spmm_s_cycles "
           << l.spmmSparserCycles << '\n';
        os << "mem window " << l.windowRows << " idx " << l.idxBytes
           << " qk " << l.qkLoadBytes << " gathers " << l.gatherMisses
           << " gather_row " << l.gatherRowBytes << " s " << l.sBytes
           << " spill " << l.spillBytes << " v " << l.vLoadBytes
           << " out " << l.outStoreBytes << '\n';
        os << "predict macs " << l.predictMacs << " overhead "
           << l.predictOverhead << '\n';
        os << "exec qkv " << l.execMacs.qkv << " attn "
           << l.execMacs.attn << " out_proj " << l.execMacs.outProj
           << " mlp " << l.execMacs.mlp << '\n';
        const DenseBlockSchedule &d = l.dense;
        os << "dense proj " << d.projMacs << " encode "
           << d.encodeMacs << " out_proj " << d.outProjMacs << " mlp "
           << d.mlpMacs << " proj_load " << d.projLoadBytes
           << " proj_store " << d.projStoreBytes << " op_bytes "
           << d.outProjBytes << " mlp_bytes " << d.mlpBytes << " ln "
           << d.lnElems << '\n';
        os << "head_scheds " << l.heads.size() << '\n';
        for (const HeadSchedule &h : l.heads) {
            os << "head " << h.head << " tokens " << h.tokens
               << " head_dim " << h.headDim << " global "
               << h.numGlobalTokens << " denser_nnz " << h.denserNnz
               << " sparser_nnz " << h.sparserNnz << " denser_macs "
               << h.denserMacs << " sparser_macs " << h.sparserMacs
               << " idx_bytes " << h.idxBytes << " gathers "
               << h.qGatherMisses << " use_csc " << h.layout.useCsc
               << '\n';
            writeVec(os, "row_ptr", h.layout.rowPtr);
            writeVec(os, "col_idx", h.layout.colIdx);
            if (h.layout.useCsc) {
                writeVec(os, "col_ptr", h.layout.colPtr);
                writeVec(os, "row_idx", h.layout.rowIdx);
            }
        }
    }
    os.precision(old_precision);
}

} // namespace vitcod::core::schedule
