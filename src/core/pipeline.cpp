#include "pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace vitcod::core {

double
LayerAeSummary::ratio() const
{
    return heads ? static_cast<double>(compressed) /
                       static_cast<double>(heads)
                 : 1.0;
}

const SparseAttentionPlan &
ModelPlan::planOf(size_t layer, size_t head) const
{
    for (const auto &h : heads)
        if (h.layer == layer && h.head == head)
            return h.plan;
    panic("no plan for layer ", layer, " head ", head);
}

double
ModelPlan::aeCompressionRatio() const
{
    if (ae.empty())
        return 1.0;
    double sum = 0.0;
    for (const auto &l : ae)
        sum += l.ratio();
    return sum / static_cast<double>(ae.size());
}

ModelPlan
buildModelPlan(const model::VitModelConfig &model,
               const PipelineConfig &cfg)
{
    VITCOD_TRACE_SPAN("plan", "core");
    ModelPlan out;
    out.model = model;
    out.cfg = cfg;

    model::AttentionGenConfig gen_cfg = cfg.gen;
    gen_cfg.seed ^= cfg.seed;
    const model::AttentionMapGenerator gen(model, gen_cfg);
    const auto &shapes = gen.shapes();

    Rng rng(cfg.seed);

    // ---- Step 1 (Fig. 10): insert AE modules per layer and fit.
    if (cfg.useAutoEncoder) {
        VITCOD_TRACE_SPAN("ae_fit", "core");
        for (size_t l = 0; l < shapes.size(); ++l) {
            const size_t h = shapes[l].heads;
            const size_t c =
                std::max<size_t>(1, (h + cfg.aeCompressDenominator - 1) /
                                        cfg.aeCompressDenominator);
            const size_t latent =
                cfg.aeLatentRank ? cfg.aeLatentRank
                                 : std::max<size_t>(1, h / 3);
            const size_t samples = std::min(
                cfg.aeFitSamples, shapes[l].tokens * shapes[l].headDim);

            LayerAeSummary summary;
            summary.layer = l;
            summary.heads = h;
            summary.compressed = c;

            for (int tensor = 0; tensor < 2; ++tensor) {
                Rng fork = rng.fork();
                const linalg::Matrix data = synthesizeHeadData(
                    samples, h, std::min(latent, h), cfg.aeNoiseStd,
                    fork);
                AutoEncoder ae({h, c, cfg.seed + l * 2 + tensor});
                ae.fitPca(data);
                const double err = ae.relativeError(data);
                (tensor == 0 ? summary.relErrorQ : summary.relErrorK) =
                    err;
            }
            out.ae.push_back(summary);
        }
    }

    // ---- Step 2 (Fig. 10): split-and-conquer every (layer, head).
    double sum_sparsity = 0.0;
    double sum_mass = 0.0;
    double sum_ngt_frac = 0.0;
    size_t count = 0;
    for (size_t l = 0; l < shapes.size(); ++l) {
        for (size_t h = 0; h < shapes[l].heads; ++h) {
            linalg::Matrix a;
            {
                VITCOD_TRACE_SPAN("generate", "core", "tokens",
                                  double(shapes[l].tokens));
                a = gen.generate(l, h);
            }
            HeadPlan hp;
            hp.layer = l;
            hp.head = h;
            {
                VITCOD_TRACE_SPAN("split_conquer", "core", "tokens",
                                  double(shapes[l].tokens));
                hp.plan = splitConquer(a, cfg.splitConquer);
            }
            sum_sparsity += hp.plan.sparsity;
            sum_mass += hp.plan.retainedMass;
            sum_ngt_frac +=
                static_cast<double>(hp.plan.numGlobalTokens) /
                static_cast<double>(hp.plan.tokens);
            ++count;
            out.heads.push_back(std::move(hp));
        }
    }
    VITCOD_ASSERT(count > 0, "model produced no attention heads");
    out.avgSparsity = sum_sparsity / static_cast<double>(count);
    out.avgRetainedMass = sum_mass / static_cast<double>(count);
    out.avgGlobalTokenFrac = sum_ngt_frac / static_cast<double>(count);

    if (cfg.useAutoEncoder && !out.ae.empty()) {
        double err = 0.0;
        for (const auto &l : out.ae)
            err += 0.5 * (l.relErrorQ + l.relErrorK);
        out.aeRelError = err / static_cast<double>(out.ae.size());
    }

    // ---- Final finetuning: quality estimate via the proxy.
    const AccuracyProxy proxy(cfg.proxy);
    out.estimatedQuality =
        proxy.estimate(model.baselineQuality, model.task,
                       out.avgRetainedMass, out.aeRelError);
    return out;
}

PipelineConfig
makePipelineConfig(double target_sparsity, bool use_ae)
{
    PipelineConfig cfg;
    cfg.splitConquer.mode = PruneMode::TargetSparsity;
    cfg.splitConquer.targetSparsity = target_sparsity;
    cfg.useAutoEncoder = use_ae;
    return cfg;
}

} // namespace vitcod::core
