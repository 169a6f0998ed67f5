#include "vit_config.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace vitcod::model {

size_t
VitModelConfig::totalLayers() const
{
    size_t n = 0;
    for (const auto &s : stages)
        n += s.layers;
    return n;
}

size_t
VitModelConfig::totalHeads() const
{
    size_t n = 0;
    for (const auto &s : stages)
        n += s.layers * s.heads;
    return n;
}

namespace {

template <typename Fn>
size_t
maxOverStages(const std::vector<StageConfig> &stages, Fn &&dim)
{
    size_t best = 0;
    for (const auto &s : stages)
        best = std::max(best, dim(s));
    return best;
}

} // namespace

size_t
VitModelConfig::maxTokens() const
{
    return maxOverStages(stages,
                         [](const StageConfig &s) { return s.tokens; });
}

size_t
VitModelConfig::maxEmbedDim() const
{
    return maxOverStages(
        stages, [](const StageConfig &s) { return s.embedDim; });
}

size_t
VitModelConfig::maxHeadConcat() const
{
    return maxOverStages(stages, [](const StageConfig &s) {
        return s.heads * s.headDim;
    });
}

size_t
VitModelConfig::maxMlpHidden() const
{
    return maxOverStages(stages, [](const StageConfig &s) {
        return s.mlpRatio * s.embedDim;
    });
}

size_t
VitModelConfig::maxHeadDim() const
{
    return maxOverStages(
        stages, [](const StageConfig &s) { return s.headDim; });
}

const StageConfig &
VitModelConfig::stageForLayer(size_t layer) const
{
    VITCOD_ASSERT(!stages.empty(), "model has no stages");
    size_t first = 0;
    for (const auto &s : stages) {
        if (layer < first + s.layers)
            return s;
        first += s.layers;
    }
    return stages.back();
}

namespace {

VitModelConfig
deit(const std::string &name, size_t heads, size_t embed,
     double accuracy)
{
    VitModelConfig m;
    m.name = name;
    m.task = Task::ImageClassification;
    // 224x224 image, 16x16 patches -> 196 tokens + CLS.
    m.stages = {{12, 197, heads, embed / heads, embed, 4}};
    m.stemFlops = 2.0 * 197 * 3 * 16 * 16 * embed; // patch projection
    m.baselineQuality = accuracy;
    m.nominalSparsity = 0.90; // paper Sec. VI-C: DeiT holds 90%
    return m;
}

VitModelConfig
levit(const std::string &name, std::vector<size_t> dims,
      std::vector<size_t> heads, size_t head_dim, double accuracy)
{
    VitModelConfig m;
    m.name = name;
    m.task = Task::ImageClassification;
    // Conv stem downsamples 224x224 to 14x14 tokens; pyramid stages
    // shrink 196 -> 49 -> 16.
    const size_t tokens[3] = {196, 49, 16};
    for (size_t s = 0; s < 3; ++s)
        m.stages.push_back({4, tokens[s], heads[s], head_dim, dims[s], 2});
    // 4-layer conv stem, ~3x3 kernels, rough published FLOPs share.
    m.stemFlops = 2.0 * 30e6 * static_cast<double>(dims[0]) / 128.0;
    m.baselineQuality = accuracy;
    m.nominalSparsity = 0.80; // paper Sec. VI-C: LeViT holds 80%
    return m;
}

} // namespace

VitModelConfig
deitTiny()
{
    return deit("DeiT-Tiny", 3, 192, 72.2);
}

VitModelConfig
deitSmall()
{
    return deit("DeiT-Small", 6, 384, 79.9);
}

VitModelConfig
deitBase()
{
    return deit("DeiT-Base", 12, 768, 81.8);
}

VitModelConfig
levit128()
{
    return levit("LeViT-128", {128, 256, 384}, {4, 8, 12}, 16, 78.6);
}

VitModelConfig
levit192()
{
    return levit("LeViT-192", {192, 288, 384}, {3, 5, 6}, 32, 80.0);
}

VitModelConfig
levit256()
{
    return levit("LeViT-256", {256, 384, 512}, {4, 6, 8}, 32, 81.6);
}

VitModelConfig
stridedTransformer()
{
    VitModelConfig m;
    m.name = "StridedTrans.";
    m.task = Task::PoseEstimation;
    // 351-frame receptive field, width 256, 8 heads; the vanilla
    // transformer encoder (3 blocks) plus the strided encoder
    // (3 blocks) are modeled as 6 blocks at full length.
    m.stages = {{6, 351, 8, 32, 256, 2}};
    m.stemFlops = 2.0 * 351 * (17 * 2) * 256; // per-frame pose embed
    m.baselineQuality = 43.7; // MPJPE (mm) on Human3.6M
    m.nominalSparsity = 0.90;
    return m;
}

VitModelConfig
bertBase(size_t seq_len)
{
    VitModelConfig m;
    m.name = "BERT-Base-n" + std::to_string(seq_len);
    m.task = Task::NlpGlue;
    m.stages = {{12, seq_len, 12, 64, 768, 4}};
    m.stemFlops = 0.0;
    m.baselineQuality = 88.9; // GLUE-MRPC accuracy (paper Sec. VI-B)
    m.nominalSparsity = 0.60; // NLP holds less static sparsity
    return m;
}

std::vector<VitModelConfig>
coreSixModels()
{
    return {deitBase(),  deitSmall(), deitTiny(),
            levit128(),  levit192(),  levit256()};
}

std::vector<VitModelConfig>
allSevenModels()
{
    return {stridedTransformer(), deitTiny(), deitSmall(), deitBase(),
            levit128(),           levit192(), levit256()};
}

std::optional<VitModelConfig>
findModel(const std::string &name)
{
    // Built once: the serving runtime checks every submitted key.
    static const std::vector<VitModelConfig> kZoo = allSevenModels();
    for (const auto &m : kZoo)
        if (m.name == name)
            return m;
    if (name.rfind("BERT-Base-n", 0) == 0) {
        // The whole suffix must be a positive decimal: no sign, no
        // trailing junk, no exception on garbage.
        const std::string_view tok = std::string_view(name).substr(11);
        const char *end = tok.data() + tok.size();
        size_t seq_len = 0;
        const auto [p, ec] = std::from_chars(tok.data(), end, seq_len);
        if (ec == std::errc() && p == end && seq_len > 0)
            return bertBase(seq_len);
    }
    return std::nullopt;
}

VitModelConfig
modelByName(const std::string &name)
{
    auto m = findModel(name);
    if (!m)
        fatal("unknown model name: ", name);
    return std::move(*m);
}

} // namespace vitcod::model
