/**
 * @file
 * Forward-pass workloads: whole-model ModelExecutor forwards on an
 * Optimized-tier engine, closed loop with one client.
 *
 *  - fwd_tiny_b1:  DeiT-Tiny @ 0.9, batch 1, no pool.
 *  - fwd_levit_b1: LeViT-128 @ 0.8, batch 1, no pool.
 *  - fwd_small_b4: DeiT-Small @ 0.9, forwardBatch of 4 over a
 *                  ThreadPool(2) (the caller participates: 3 compute
 *                  threads).
 *
 * The traced run adds the per-layer split. It replays every public
 * call one forward makes (gemmInto, sparseAttentionInto over the
 * executor's schedule layouts, layerNormRowsInto, geluInPlace) on
 * activations of the same shapes, one span per call; whatever the
 * forward spends outside those calls (permute copies, residual adds,
 * pooling) is the glue.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "suite.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/kernels.h"

namespace vitcod::suite {

namespace {

using core::model_exec::ExecTrace;
using core::model_exec::ExecutorConfig;
using core::model_exec::ModelExecutor;
using core::model_exec::ModelWeights;
using linalg::Matrix;
using linalg::engine::KernelEngine;
using linalg::engine::KernelTier;

struct FwdSpec
{
    const char *workload;
    const char *model;
    double sparsity;
    size_t batch;
    size_t poolThreads; //!< 0 = no pool (single thread)
};

constexpr FwdSpec kSpecs[] = {
    {"fwd_tiny_b1", "DeiT-Tiny", 0.9, 1, 0},
    {"fwd_levit_b1", "LeViT-128", 0.8, 1, 0},
    {"fwd_small_b4", "DeiT-Small", 0.9, 4, 2},
};

constexpr size_t kNumClasses = 1000;

/** Replayed time of one forward, per phase (seconds). */
struct Phases
{
    double layernorm = 0, qkv = 0, attn = 0, proj = 0, fc1 = 0,
           gelu = 0, fc2 = 0, other = 0;
};

/** ulp distance between two finite floats (huge across signs). */
uint64_t
ulpDiff(float a, float b)
{
    if (a == b)
        return 0;
    int32_t ia = 0, ib = 0;
    std::memcpy(&ia, &a, sizeof ia);
    std::memcpy(&ib, &b, sizeof ib);
    if ((ia < 0) != (ib < 0))
        return UINT64_MAX;
    return static_cast<uint64_t>(std::llabs(int64_t{ia} - int64_t{ib}));
}

/**
 * Optimized logits against the Reference tier, with the budget of
 * the differential suite (tests/core/test_model_exec.cpp): 4096 ulp
 * per layer, plus a 1e-4 absolute band for values near zero.
 */
bool
withinBudget(const Matrix &got, const Matrix &want, size_t layers)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return false;
    const uint64_t max_ulps = 4096 * layers;
    for (size_t i = 0; i < got.size(); ++i) {
        const float a = got.data()[i], b = want.data()[i];
        if (std::abs(a - b) > 1e-4f && ulpDiff(a, b) > max_ulps)
            return false;
    }
    return true;
}

bool
bitwiseEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

/**
 * Inputs of one replayed forward: random activations with the shape
 * of every call the executor makes, plus the plan's masks and the
 * schedule's prebuilt layouts. Values do not steer any kernel's
 * control flow, so random N(0,1) activations time like real ones.
 */
class Replay
{
  public:
    Replay(const ModelExecutor &exec, Rng &rng) : exec_(exec)
    {
        const model::VitModelConfig &m = exec.plan().model;
        patches_ = Matrix::randomNormal(m.stages[0].tokens,
                                        exec.config().inDim, rng);
        flops_ += 2.0 * double(patches_.rows()) *
                  double(patches_.cols()) * double(m.stages[0].embedDim);
        size_t layer = 0;
        for (size_t st = 0; st < m.stages.size(); ++st) {
            const model::StageConfig &s = m.stages[st];
            Stage b;
            b.x = Matrix::randomNormal(s.tokens, s.embedDim, rng);
            b.hq = Matrix::randomNormal(s.tokens, s.headDim, rng);
            b.hk = Matrix::randomNormal(s.tokens, s.headDim, rng);
            b.hv = Matrix::randomNormal(s.tokens, s.headDim, rng);
            b.concat = Matrix::randomNormal(s.tokens,
                                            s.heads * s.headDim, rng);
            if (st > 0) {
                const size_t d_old = m.stages[st - 1].embedDim;
                b.pooled = Matrix::randomNormal(s.tokens, d_old, rng);
                flops_ += 2.0 * double(s.tokens) * double(d_old) *
                          double(s.embedDim);
            }
            b.scale = static_cast<float>(
                1.0 / std::sqrt(static_cast<double>(s.headDim)));
            const double n = double(s.tokens), d = double(s.embedDim),
                         hd = double(s.heads * s.headDim),
                         hid = double(s.mlpRatio * s.embedDim);
            flops_ += double(s.layers) * 2.0 * n *
                      (3.0 * d * hd + hd * d + 2.0 * d * hid);
            for (size_t i = 0; i < s.layers; ++i, ++layer) {
                std::vector<Head> heads;
                const auto &ls = exec.schedule().layers[layer];
                for (size_t h = 0; h < s.heads; ++h) {
                    const sparse::BitMask &mask =
                        exec.plan().planOf(layer, h).mask;
                    const auto &lay = ls.heads[h].layout;
                    heads.push_back(
                        {&mask,
                         {mask.rows(), mask.cols(), &lay.rowPtr,
                          &lay.colIdx, &lay.colPtr, &lay.rowIdx,
                          lay.useCsc}});
                }
                heads_.push_back(std::move(heads));
                stageOf_.push_back(st);
            }
            stages_.push_back(std::move(b));
        }
        const size_t d_last = m.stages.back().embedDim;
        classIn_ = Matrix::randomNormal(1, d_last, rng);
        flops_ += 2.0 * double(d_last) * double(kNumClasses);
    }

    /** GEMM flops of one forward (2 per MAC). */
    double gemmFlops() const { return flops_; }

    /** Replay one forward's public calls, one span each. */
    void run(const KernelEngine &eng, Phases &ph, uint64_t op)
    {
        const ModelWeights &w = exec_.weights();
        Span root("model_exec.replay", nullptr, op);
        {
            Span s("engine.gemm_other", &ph.other, op);
            eng.gemmInto(patches_, w.patchEmbed, out_);
        }
        for (size_t l = 0; l < heads_.size(); ++l) {
            const size_t st = stageOf_[l];
            Stage &b = stages_[st];
            if (st > 0 && (l == 0 || stageOf_[l - 1] != st)) {
                Span s("engine.gemm_other", &ph.other, op);
                eng.gemmInto(b.pooled, w.stageProj[st - 1], out_);
            }
            const core::BlockWeights &bw = w.blocks[l];
            {
                Span s("linalg.layernorm", &ph.layernorm, op);
                linalg::layerNormRowsInto(b.x, bw.ln1Gamma, bw.ln1Beta,
                                          norm_);
            }
            {
                Span s("engine.gemm_qkv", &ph.qkv, op);
                eng.gemmInto(norm_, bw.wq, q_);
                eng.gemmInto(norm_, bw.wk, k_);
                eng.gemmInto(norm_, bw.wv, v_);
            }
            {
                Span s("engine.sparse_attn", &ph.attn, op);
                for (const Head &h : heads_[l])
                    eng.sparseAttentionInto(b.hq, b.hk, b.hv, *h.mask,
                                            h.layout, b.scale, out_);
            }
            {
                Span s("engine.gemm_proj", &ph.proj, op);
                eng.gemmInto(b.concat, bw.wo, out_);
            }
            {
                Span s("linalg.layernorm", &ph.layernorm, op);
                linalg::layerNormRowsInto(b.x, bw.ln2Gamma, bw.ln2Beta,
                                          norm_);
            }
            {
                Span s("engine.gemm_fc1", &ph.fc1, op);
                eng.gemmInto(norm_, bw.fc1, hidden_);
            }
            {
                Span s("linalg.gelu", &ph.gelu, op);
                linalg::geluInPlace(hidden_);
            }
            {
                Span s("engine.gemm_fc2", &ph.fc2, op);
                eng.gemmInto(hidden_, bw.fc2, out_);
            }
        }
        {
            Span s("linalg.layernorm", &ph.layernorm, op);
            linalg::layerNormRowsInto(stages_.back().x, w.lnFinalGamma,
                                      w.lnFinalBeta, norm_);
        }
        {
            Span s("engine.gemm_other", &ph.other, op);
            eng.gemmInto(classIn_, w.classifier, out_);
        }
    }

  private:
    struct Stage
    {
        Matrix x, hq, hk, hv, concat, pooled;
        float scale = 1.0f;
    };
    struct Head
    {
        const sparse::BitMask *mask;
        linalg::engine::MaskLayoutView layout;
    };

    const ModelExecutor &exec_;
    Matrix patches_, classIn_;
    std::vector<Stage> stages_;
    std::vector<std::vector<Head>> heads_; //!< [layer][head]
    std::vector<size_t> stageOf_;          //!< layer -> stage
    double flops_ = 0;
    Matrix norm_, q_, k_, v_, hidden_, out_;
};

} // namespace

Report
runForward(const Options &opts)
{
    const FwdSpec *spec = nullptr;
    for (const FwdSpec &s : kSpecs)
        if (opts.workload == s.workload)
            spec = &s;
    if (!spec)
        fatal("unknown forward workload '", opts.workload, "'");

    Report r;
    const model::VitModelConfig m = model::modelByName(spec->model);
    const size_t layers = m.totalLayers();
    const size_t batch = spec->batch;

    // Inputs, all from the seed: weights and one patch matrix per
    // batch slot. Weights are inputs, so their generation (and the
    // copies handed to executors) stays outside every timed region.
    Rng rng(opts.seed);
    const ExecutorConfig ecfg{.numClasses = kNumClasses};
    const ModelWeights weights =
        ModelWeights::random(m, 0, kNumClasses, rng);
    std::vector<Matrix> inputs;
    for (size_t b = 0; b < batch; ++b)
        inputs.push_back(Matrix::randomNormal(m.stages[0].tokens,
                                              m.stages[0].embedDim, rng));

    std::unique_ptr<linalg::engine::ThreadPool> pool;
    if (spec->poolThreads)
        pool = std::make_unique<linalg::engine::ThreadPool>(
            spec->poolThreads);
    const KernelEngine eng(
        {.tier = KernelTier::Optimized, .isa = std::nullopt}, pool.get());

    // Set-up: what a user waits for before the first forward — the
    // algorithm plan and the executor (schedule build + arena).
    std::vector<double> setup_s, plan_s;
    std::unique_ptr<core::ModelPlan> plan;
    std::unique_ptr<ModelExecutor> exec;
    repeatSetup(opts, 5, [&](size_t) {
        exec.reset();
        plan.reset();
        ModelWeights w = weights;
        const auto t0 = Clock::now();
        plan = std::make_unique<core::ModelPlan>(core::buildModelPlan(
            m, core::makePipelineConfig(spec->sparsity, false)));
        plan_s.push_back(secondsSince(t0));
        exec = std::make_unique<ModelExecutor>(plan.get(), std::move(w),
                                               ecfg, &eng);
        setup_s.push_back(secondsSince(t0));
    });

    const auto forward = [&]() -> std::vector<Matrix> {
        if (batch == 1)
            return {exec->forward(inputs[0])};
        return exec->forwardBatch(inputs);
    };

    // Output check, part 1: the Optimized logits against a
    // Reference-tier executor on the same plan and weights. Every
    // later forward must then reproduce these logits bit for bit.
    const std::vector<Matrix> verified = forward();
    bool verified_ok = true;
    {
        const KernelEngine ref_eng(
            {.tier = KernelTier::Reference, .isa = std::nullopt});
        ModelExecutor ref(plan.get(), ModelWeights(weights), ecfg,
                          &ref_eng);
        for (size_t b = 0; b < batch; ++b)
            verified_ok = verified_ok &&
                          withinBudget(verified[b],
                                       ref.forward(inputs[b]), layers);
    }
    forward(); // second warm-up

    bool inject = opts.injectFault;
    const auto checked = [&](std::vector<Matrix> out) {
        if (inject) {
            out[0].data()[0] += 1.0f;
            inject = false;
        }
        r.attempted += batch;
        for (size_t b = 0; b < batch; ++b)
            if (!bitwiseEqual(out[b], verified[b]))
                ++r.failed;
    };

    // Timed closed loop, tracing off.
    const double timed_s = opts.smoke ? opts.seconds
                           : opts.traced() ? opts.seconds * 0.5
                                           : opts.seconds;
    std::vector<double> call_s;
    repeatFor(timed_s, opts.minReps(), [&](size_t) {
        const auto t0 = Clock::now();
        std::vector<Matrix> out = forward();
        call_s.push_back(secondsSince(t0));
        checked(std::move(out));
    });

    const double p50_ms = median(call_s) * 1e3;
    r.e2e("latency_p50_ms", p50_ms, "ms");
    r.e2e("throughput_per_s",
          groupedRate(call_s, static_cast<double>(batch)), "1/s");
    r.e2e("setup_s", median(setup_s), "s");

    if (opts.traced()) {
        const double phase_s = opts.smoke ? opts.seconds
                                          : opts.seconds * 0.2;
        const double per_sample_ms = p50_ms / static_cast<double>(batch);

        // The executor's own record of one forward.
        ExecTrace et;
        if (batch == 1)
            checked({exec->forward(inputs[0], &et)});
        else
            checked(exec->forwardBatch(inputs, &et));
        double t_qkv = 0, t_attn = 0, t_proj = 0, t_mlp = 0;
        for (const auto &lt : et.layers) {
            t_qkv += lt.qkvSeconds;
            t_attn += lt.attnSeconds;
            t_proj += lt.projSeconds;
            t_mlp += lt.mlpSeconds;
        }
        const double per = 1e3 / static_cast<double>(batch);
        const auto per_fwd = [&](uint64_t n) {
            return static_cast<double>(n) / static_cast<double>(batch);
        };
        const auto &d = et.dispatch;

        // Batch amortization: one-sample forward time over the
        // per-sample time inside the batch.
        double amortization = 1.0;
        if (batch > 1) {
            std::vector<double> single_s;
            repeatFor(phase_s * 0.5, opts.minReps(), [&](size_t) {
                const auto t0 = Clock::now();
                const Matrix out = exec->forward(inputs[0]);
                single_s.push_back(secondsSince(t0));
                r.attempted += 1;
                r.failed += bitwiseEqual(out, verified[0]) ? 0 : 1;
            });
            amortization = median(single_s) * 1e3 / per_sample_ms;
        }

        Replay replay(*exec, rng);
        startTrace(opts);
        std::vector<Phases> reps;
        repeatFor(phase_s, opts.minReps(), [&](size_t i) {
            Phases ph;
            replay.run(eng, ph, i + 1);
            reps.push_back(ph);
        });
        std::vector<double> traced_s;
        repeatFor(phase_s, opts.minReps(), [&](size_t i) {
            double dt = 0;
            std::vector<Matrix> out;
            {
                Span s("model_exec.forward", &dt, i + 1);
                out = forward();
            }
            traced_s.push_back(dt);
            checked(std::move(out));
        });
        finishTrace(opts);

        const auto med = [&](double Phases::*f) {
            std::vector<double> v;
            for (const Phases &p : reps)
                v.push_back(p.*f * 1e3);
            return median(v);
        };
        const double ln = med(&Phases::layernorm), qkv = med(&Phases::qkv),
                     attn = med(&Phases::attn), proj = med(&Phases::proj),
                     fc1 = med(&Phases::fc1), gelu = med(&Phases::gelu),
                     fc2 = med(&Phases::fc2), other = med(&Phases::other);
        const double gemm_ms = qkv + proj + fc1 + fc2 + other;
        const double glue =
            per_sample_ms - (ln + qkv + attn + proj + fc1 + gelu + fc2 +
                             other);

        r.layer("linalg.gelu_ms", gelu, "ms");
        r.layer("linalg.layernorm_ms", ln, "ms");
        r.layer("model_exec.glue_ms", glue, "ms");
        r.layer("engine.gemm_qkv_ms", qkv, "ms");
        r.layer("engine.gemm_proj_ms", proj, "ms");
        r.layer("engine.gemm_fc1_ms", fc1, "ms");
        r.layer("engine.gemm_fc2_ms", fc2, "ms");
        r.layer("engine.gemm_other_ms", other, "ms");
        r.layer("engine.gemm_gflops",
                replay.gemmFlops() / (gemm_ms * 1e-3) / 1e9, "GFLOP/s");
        r.layer("engine.sparse_attn_ms", attn, "ms");
        r.layer("model_exec.batch_amortization", amortization, "ratio");
        r.layer("engine.launches.gemm",
                per_fwd(d.gemmReference + d.gemmOptimized), "count");
        r.layer("engine.launches.sddmm_csr", per_fwd(d.sddmmCsr),
                "count");
        r.layer("engine.launches.sddmm_csc", per_fwd(d.sddmmCsc),
                "count");
        r.layer("engine.launches.softmax",
                per_fwd(d.softmaxReference + d.softmaxOptimized),
                "count");
        r.layer("engine.launches.spmm",
                per_fwd(d.spmmReference + d.spmmOptimized), "count");
        r.layer("engine.launches.parallel", per_fwd(d.parallelLaunches),
                "count");
        const std::pair<const char *, double> shares[] = {
            {"share.layernorm", ln}, {"share.qkv", qkv},
            {"share.attn", attn},    {"share.proj", proj},
            {"share.fc1", fc1},      {"share.gelu", gelu},
            {"share.fc2", fc2},      {"share.other", other},
            {"share.glue", glue}};
        for (const auto &[name, ms] : shares)
            r.layer(name, ms / per_sample_ms, "fraction");
        r.layer("model_exec.trace.qkv_ms", t_qkv * per, "ms");
        r.layer("model_exec.trace.attn_ms", t_attn * per, "ms");
        r.layer("model_exec.trace.proj_ms", t_proj * per, "ms");
        r.layer("model_exec.trace.mlp_ms", t_mlp * per, "ms");
        r.layer("model_exec.macs", per_fwd(et.totalMacs), "count");
        r.layer("model_exec.arena_growths",
                static_cast<double>(exec->arena().growths()), "count");
        r.layer("model_exec.forward_p95_ms",
                percentile(call_s, 0.95) * 1e3, "ms");
        r.layer("model_exec.forward_samples",
                static_cast<double>(call_s.size()), "count");
        r.layer("core.plan_build_s", median(plan_s), "s");
        r.layer("trace.overhead_frac",
                median(traced_s) * 1e3 / p50_ms - 1.0, "fraction");
    }

    // Output check, part 2: a broken reference match or an arena that
    // grew after its reservation makes every operation suspect.
    if (!verified_ok || exec->arena().growths() != 0)
        r.failed = r.attempted;
    return r;
}

} // namespace vitcod::suite
