/**
 * @file
 * Workload descriptions of every model the paper evaluates (Sec.
 * VI-A): DeiT-Base/Small/Tiny, LeViT-128/192/256, Strided Transformer
 * — plus a BERT-Base-like NLP encoder used by the paper's NLP
 * discussion (Sec. VI-B, "Discussion of NLP Models").
 *
 * Each model is a sequence of stages; a stage is a run of identical
 * transformer blocks (MHSA + MLP) over a fixed token count. DeiT has
 * one stage; LeViT's pyramid has three (196 -> 49 -> 16 tokens).
 * LeViT's convolutional stem is accounted as a fixed FLOPs overhead
 * (the paper: "early convolutions only account for a negligible
 * amount of FLOPs (< 7%)").
 */

#ifndef VITCOD_MODEL_VIT_CONFIG_H
#define VITCOD_MODEL_VIT_CONFIG_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace vitcod::model {

/** Task family; selects the accuracy metric reported by benches. */
enum class Task
{
    ImageClassification, //!< ImageNet top-1 (%)
    PoseEstimation,      //!< Human3.6M MPJPE (mm), lower is better
    NlpGlue,             //!< GLUE score-style accuracy (%)
};

/** A run of identical transformer blocks over a fixed token count. */
struct StageConfig
{
    size_t layers;   //!< number of MHSA+MLP blocks
    size_t tokens;   //!< sequence length n (includes CLS if any)
    size_t heads;    //!< attention heads h
    size_t headDim;  //!< per-head embedding d_k
    size_t embedDim; //!< model width d
    size_t mlpRatio; //!< MLP hidden = mlpRatio * embedDim
};

/** A full model as a pipeline of stages. */
struct VitModelConfig
{
    std::string name;
    Task task = Task::ImageClassification;
    std::vector<StageConfig> stages;
    /** Fixed non-transformer FLOPs (conv stem, heads); "Other". */
    double stemFlops = 0.0;
    /** Published quality of the dense model (top-1 % or MPJPE mm). */
    double baselineQuality = 0.0;
    /**
     * Highest attention sparsity the ViTCoD algorithm sustains with
     * <1% quality drop (paper Sec. VI-C: 90% for DeiT, 80% for
     * LeViT). Used as each model's operating point.
     */
    double nominalSparsity = 0.9;

    /** Total transformer blocks across stages. */
    size_t totalLayers() const;

    /** Total attention heads across all blocks. */
    size_t totalHeads() const;

    /**
     * Stage containing the given global layer index (stages are a
     * pipeline of stage.layers-deep blocks). Layers past the end
     * clamp to the last stage.
     * @pre at least one stage.
     */
    const StageConfig &stageForLayer(size_t layer) const;

    /** @name Worst-case activation shapes across all stages.
     *  What a per-model BufferArena sizes its slots with, so a full
     *  forward pass touches every stage without ever growing a
     *  buffer.
     *  @{ */
    size_t maxTokens() const;    //!< max stage.tokens
    size_t maxEmbedDim() const;  //!< max stage.embedDim
    size_t maxHeadConcat() const; //!< max heads * headDim
    size_t maxMlpHidden() const; //!< max mlpRatio * embedDim
    size_t maxHeadDim() const;   //!< max stage.headDim
    /** @} */
};

/** @name Model zoo (paper Sec. VI-A)
 *  @{ */
VitModelConfig deitTiny();
VitModelConfig deitSmall();
VitModelConfig deitBase();
VitModelConfig levit128();
VitModelConfig levit192();
VitModelConfig levit256();
VitModelConfig stridedTransformer();
/** BERT-Base encoder at the given sequence length (NLP discussion). */
VitModelConfig bertBase(size_t seq_len);
/** @} */

/** The six DeiT+LeViT models used for averaged speedups. */
std::vector<VitModelConfig> coreSixModels();

/** All seven ViT models of Fig. 15 (Strided Transformer first). */
std::vector<VitModelConfig> allSevenModels();

/**
 * Look up a model by name: a zoo model's name or "BERT-Base-n<len>"
 * with a positive decimal length. nullopt on anything else.
 */
std::optional<VitModelConfig> findModel(const std::string &name);

/** findModel() for names that must exist; fatal() on unknown ones. */
VitModelConfig modelByName(const std::string &name);

} // namespace vitcod::model

#endif // VITCOD_MODEL_VIT_CONFIG_H
