#include "core/schedule/builder.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "model/flops.h"

namespace vitcod::core::schedule {

ScheduleBuilder::ScheduleBuilder(BuilderConfig cfg) : cfg_(std::move(cfg))
{
    VITCOD_ASSERT(cfg_.hw.macLines > 0 && cfg_.hw.macsPerLine > 0,
                  "schedule needs a MAC array");
}

LayerSchedule
ScheduleBuilder::buildAttentionLayer(const core::ModelPlan &plan,
                                     size_t layer) const
{
    const HardwareParams &hw = cfg_.hw;
    const auto shapes = model::attentionShapes(plan.model);
    VITCOD_ASSERT(layer < shapes.size(), "layer out of range");
    const auto &shape = shapes[layer];
    const size_t n = shape.tokens;
    const size_t dk = shape.headDim;
    const size_t h = shape.heads;
    const auto eb = static_cast<double>(hw.elemBytes);

    // Pair plans by their explicit (layer, head) ids — never by
    // position in plan.heads, whose ordering is a producer detail.
    std::vector<const core::SparseAttentionPlan *> hp(h, nullptr);
    for (const auto &head : plan.heads) {
        if (head.layer != layer)
            continue;
        VITCOD_ASSERT(head.head < h && hp[head.head] == nullptr,
                      "bad or duplicate head plan at layer ", layer);
        hp[head.head] = &head.plan;
    }
    for (size_t head = 0; head < h; ++head)
        VITCOD_ASSERT(hp[head] != nullptr,
                      "plan missing heads for layer ", layer);

    LayerSchedule ls;
    ls.layer = layer;
    ls.shape = {n, h, dk, shape.embedDim,
                plan.model.stageForLayer(layer).mlpRatio};

    // ---- AE compression state.
    ls.aeOn = hw.enableAeEngines && !plan.ae.empty();
    if (ls.aeOn) {
        VITCOD_ASSERT(layer < plan.ae.size(), "AE summary missing");
        ls.aeRatio = plan.ae[layer].ratio();
        ls.compressedHeads = plan.ae[layer].compressed;
        // Every token's Q and K row is recovered from the compressed
        // representation once per layer.
        ls.decodeMacs = static_cast<MacOps>(2) * n * dk * h *
                        ls.compressedHeads;
    }

    // ---- Workload split (the parser step of Fig. 14) + runtime
    // layouts, one head at a time; the mask is scanned exactly here
    // and nowhere else.
    uint64_t s_elems_denser = 0, s_elems_sparser = 0;
    size_t mask_nnz = 0;
    ls.heads.reserve(h);
    for (size_t head = 0; head < h; ++head) {
        const core::SparseAttentionPlan *p = hp[head];
        HeadSchedule hs;
        hs.head = head;
        hs.tokens = p->tokens;
        hs.headDim = dk;
        hs.numGlobalTokens = p->numGlobalTokens;
        hs.denserNnz = p->denserNnz;
        hs.sparserNnz = p->sparserNnz;
        hs.denserMacs =
            static_cast<MacOps>(n) * p->numGlobalTokens * dk;
        hs.sparserMacs = static_cast<MacOps>(p->sparserNnz) * dk;
        if (p->numGlobalTokens < p->tokens)
            hs.idxBytes = p->sparserCsc.indexBytes(hw.indexBytes);

        if (cfg_.buildLayouts) {
            hs.layout = linalg::engine::buildMaskLayout(p->mask);
            VITCOD_ASSERT(
                hs.layout.colIdx.size() == hs.maskNnz(),
                "denser/sparser split must partition the mask");
        }

        ls.denserSddmmMacs += hs.denserMacs;
        ls.sparserSddmmMacs += hs.sparserMacs;
        ls.denserSpmmMacs += hs.denserMacs;
        ls.sparserSpmmMacs += hs.sparserMacs;
        s_elems_denser += n * p->numGlobalTokens;
        s_elems_sparser += p->sparserNnz;
        ls.idxBytes += hs.idxBytes;
        mask_nnz += hs.maskNnz();
        ls.heads.push_back(std::move(hs));
    }
    ls.softmaxElems = s_elems_denser + s_elems_sparser;

    // ---- Dynamic MAC-line allocation (paper Sec. V-B1). The
    // proportional split is always recorded (it is what the
    // ConfigLines instructions carry); the monolithic ablation
    // ignores it at pricing time and runs both splits serially, so
    // its sparser cost is precomputed at the whole array width.
    const size_t lines = hw.macLines;
    const size_t mpl = hw.macsPerLine;
    {
        // A static sparser share (hw.sparserLineFrac, a DSE axis)
        // overrides the proportional split, except when only one
        // engine has work — then it takes the whole array, exactly
        // like the dynamic allocator.
        const auto split = [&](MacOps denser,
                               MacOps sparser) -> std::array<size_t, 2> {
            // lines >= 2: a static split needs one line per engine;
            // a single-line array falls back to the dynamic path.
            if (hw.sparserLineFrac > 0.0 && denser > 0 &&
                sparser > 0 && lines >= 2) {
                const auto s = std::clamp<size_t>(
                    static_cast<size_t>(std::lround(
                        hw.sparserLineFrac *
                        static_cast<double>(lines))),
                    1, lines - 1);
                return {lines - s, s};
            }
            const auto a = allocateEngineLines(
                {static_cast<double>(denser),
                 static_cast<double>(sparser)},
                lines);
            return {a[0], a[1]};
        };
        const auto sddmm =
            split(ls.denserSddmmMacs, ls.sparserSddmmMacs);
        ls.sddmmDenserLines = sddmm[0];
        ls.sddmmSparserLines = sddmm[1];
        const auto spmm = split(ls.denserSpmmMacs, ls.sparserSpmmMacs);
        ls.spmmDenserLines = spmm[0];
        ls.spmmSparserLines = spmm[1];
    }
    const size_t sddmm_width =
        hw.twoPronged ? ls.sddmmSparserLines : lines;
    const size_t spmm_width =
        hw.twoPronged ? ls.spmmSparserLines : lines;
    ls.sddmmSparserCycles = sparserEngineCycles(
        hp, dk, sddmm_width, mpl, hw.colOverheadCycles);
    ls.spmmSparserCycles = sparserEngineCycles(
        hp, dk, spmm_width, mpl, hw.colOverheadCycles);

    // ---- SDDMM input movement under the K-stationary dataflow
    // (paper Fig. 13): each K vector streams once; Q rows stream
    // once when the head's Q block fits on chip and re-stream K per
    // extra Q block otherwise. Heads without a denser stream to
    // snoop (pruning-only ablation) gather Q rows through an exact
    // LRU window instead.
    const double q_row_bytes = dk * eb * ls.aeRatio;
    ls.windowRows = std::max<size_t>(
        1, static_cast<size_t>(
               static_cast<double>(hw.qkvBufBytes) / 2.0 /
               (static_cast<double>(h) * q_row_bytes)));
    double k_bytes =
        static_cast<double>(n) * h * dk * eb * ls.aeRatio;
    double q_bytes = 0.0;
    for (HeadSchedule &hs : ls.heads) {
        const core::SparseAttentionPlan *p = hp[hs.head];
        if (p->numGlobalTokens > 0 || p->sparserNnz == 0) {
            q_bytes += static_cast<double>(n) * q_row_bytes;
            if (ls.windowRows < n) {
                const auto extra_passes = static_cast<double>(
                    ceilDiv(n, ls.windowRows) - 1);
                k_bytes += static_cast<double>(p->numGlobalTokens) *
                           dk * eb * ls.aeRatio * extra_passes;
            }
        } else {
            hs.qGatherMisses =
                lruQMisses(p->sparserCsc, ls.windowRows);
            ls.gatherMisses += hs.qGatherMisses;
            q_bytes += static_cast<double>(hs.qGatherMisses) *
                       q_row_bytes;
        }
    }
    ls.qkLoadBytes = static_cast<Bytes>(k_bytes + q_bytes);
    ls.gatherRowBytes =
        static_cast<Bytes>(std::max(1.0, q_row_bytes));

    // ---- SpMM streams: V in, V' out, S spills past the S buffer.
    const double s_bytes =
        static_cast<double>(ls.softmaxElems) * eb;
    const double spill = std::max(
        0.0, s_bytes - static_cast<double>(hw.sBufferBytes));
    const double v_bytes = static_cast<double>(n) * h * dk * eb;
    ls.sBytes = static_cast<Bytes>(s_bytes);
    ls.spillBytes = static_cast<Bytes>(spill);
    ls.vLoadBytes = static_cast<Bytes>(v_bytes + spill);
    ls.outStoreBytes = static_cast<Bytes>(v_bytes + spill);

    // ---- Optional on-the-fly mask prediction (NLP mode).
    if (hw.dynamicMaskPrediction) {
        ls.predictMacs = static_cast<MacOps>(
            static_cast<double>(n) * n * h * dk *
            hw.predictionCostFactor);
        ls.predictOverhead = static_cast<Cycles>(2 * n);
    }

    // ---- Exact runtime MACs of this layer.
    ls.execMacs = blockMacs(ls.shape, mask_nnz);
    return ls;
}

void
ScheduleBuilder::fillDenseBlock(LayerSchedule &ls,
                                const core::ModelPlan &plan) const
{
    const HardwareParams &hw = cfg_.hw;
    const double n = static_cast<double>(ls.shape.tokens);
    const double d = static_cast<double>(ls.shape.embedDim);
    const double hd = static_cast<double>(ls.shape.heads) *
                      static_cast<double>(ls.shape.headDim);
    const double mlp_hidden =
        d * static_cast<double>(ls.shape.mlpRatio);
    const auto eb = static_cast<double>(hw.elemBytes);
    const double c_heads =
        ls.aeOn ? static_cast<double>(ls.compressedHeads) : 0.0;

    DenseBlockSchedule &db = ls.dense;

    // Q/K/V projection (+ encoder overlapped): Q and K leave the
    // array AE-compressed, V at full width.
    db.projMacs = static_cast<MacOps>(n * d * 3.0 * hd);
    if (ls.aeOn)
        db.encodeMacs = static_cast<MacOps>(
            2.0 * n * static_cast<double>(ls.shape.headDim) *
            static_cast<double>(ls.shape.heads) * c_heads);
    db.projLoadBytes =
        static_cast<Bytes>(n * d * eb + 3.0 * d * hd * eb);
    db.projStoreBytes = static_cast<Bytes>(
        2.0 * n * hd * eb * ls.aeRatio + n * hd * eb);

    // Output projection.
    db.outProjMacs = static_cast<MacOps>(n * hd * d);
    db.outProjBytes =
        static_cast<Bytes>(hd * d * eb + n * hd * eb + n * d * eb);

    // MLP (two layers).
    db.mlpMacs = static_cast<MacOps>(2.0 * n * d * mlp_hidden);
    db.mlpBytes = static_cast<Bytes>(2.0 * d * mlp_hidden * eb +
                                     2.0 * n * d * eb);

    // LayerNorms: elementwise on the softmax/activation lanes.
    db.lnElems = static_cast<uint64_t>(2.0 * n * d);
    (void)plan;
}

ModelSchedule
ScheduleBuilder::build(const core::ModelPlan &plan,
                       bool end_to_end) const
{
    ModelSchedule s;
    s.modelName = plan.model.name;
    s.params = cfg_.hw;
    s.endToEnd = end_to_end;
    s.stemFlops = plan.model.stemFlops;
    s.stemMacs = static_cast<MacOps>(plan.model.stemFlops / 2.0);

    const auto shapes = model::attentionShapes(plan.model);
    s.layers.reserve(shapes.size());
    for (size_t l = 0; l < shapes.size(); ++l) {
        LayerSchedule ls = buildAttentionLayer(plan, l);
        if (end_to_end)
            fillDenseBlock(ls, plan);
        s.layers.push_back(std::move(ls));
    }
    return s;
}

} // namespace vitcod::core::schedule
