#include "core/model_exec/model_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "linalg/kernels.h"
#include "obs/trace.h"

namespace vitcod::core::model_exec {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * One timed executor phase: a single clock measurement feeding both
 * an ExecTrace accumulator (when the caller collects one) and a
 * tracer span — ExecTrace is a view over exactly what the tracer
 * records, never a second, divergent stopwatch.
 */
class PhaseTimer
{
  public:
    PhaseTimer(const char *name, double *accum, const char *k1,
               double v1, const char *k2 = nullptr, double v2 = 0)
        : name_(name), accum_(accum), k1_(k1), v1_(v1), k2_(k2),
          v2_(v2), live_(obs::TraceSession::enabled())
    {
        if (live_)
            startMicros_ =
                obs::TraceSession::instance().nowMicros();
        t0_ = Clock::now();
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

    ~PhaseTimer()
    {
        const double s = secondsSince(t0_);
        if (accum_)
            *accum_ += s;
        if (!live_)
            return;
        obs::TraceEvent ev;
        ev.name = name_;
        ev.category = "model_exec";
        ev.phase = obs::Phase::Complete;
        ev.tsMicros = startMicros_;
        ev.durMicros = static_cast<int64_t>(s * 1e6);
        ev.argKey1 = k1_;
        ev.argVal1 = v1_;
        ev.argKey2 = k2_;
        ev.argVal2 = v2_;
        obs::TraceSession::instance().record(ev);
    }

  private:
    const char *name_;
    double *accum_;
    const char *k1_;
    double v1_;
    const char *k2_;
    double v2_;
    bool live_;
    int64_t startMicros_ = 0;
    Clock::time_point t0_;
};

/**
 * One attention unit's head operands, permuted to plan order, and
 * its output. Kept per thread, not in the arena: the (sample, head)
 * units of a layer run concurrently on the engine's pool.
 */
struct HeadScratch
{
    linalg::Matrix q, k, v, out;
};

} // namespace

ModelExecutor::ModelExecutor(const core::ModelPlan *plan,
                             ModelWeights weights, ExecutorConfig cfg,
                             const linalg::engine::KernelEngine *eng,
                             const core::schedule::ModelSchedule *sched)
    : plan_(plan), weights_(std::move(weights)), cfg_(cfg),
      engine_(eng)
{
    VITCOD_ASSERT(plan_ != nullptr, "null model plan");
    VITCOD_ASSERT(engine_ != nullptr, "null kernel engine");
    const model::VitModelConfig &m = plan_->model;
    VITCOD_ASSERT(!m.stages.empty(), "model has no stages");
    // Pyramids only shrink; a growing stage would leave pooling
    // groups empty (divide by zero -> NaN activations).
    for (size_t s = 0; s + 1 < m.stages.size(); ++s)
        VITCOD_ASSERT(m.stages[s + 1].tokens <= m.stages[s].tokens,
                      "stage transition must not grow tokens");
    const size_t layers = m.totalLayers();
    VITCOD_ASSERT(weights_.blocks.size() == layers,
                  "one BlockWeights per layer required");
    VITCOD_ASSERT(weights_.stageProj.size() + 1 == m.stages.size(),
                  "one stage projection per transition required");
    if (cfg_.inDim == 0)
        cfg_.inDim = m.stages.front().embedDim;
    VITCOD_ASSERT(weights_.patchEmbed.rows() == cfg_.inDim &&
                      weights_.patchEmbed.cols() ==
                          m.stages.front().embedDim,
                  "patch embedding shape mismatch");
    VITCOD_ASSERT(weights_.classifier.rows() ==
                          m.stages.back().embedDim &&
                      weights_.classifier.cols() == cfg_.numClasses,
                  "classifier shape mismatch");

    // Resolve every (layer, head) plan once; forward never searches.
    headPlans_.resize(layers);
    for (size_t l = 0; l < layers; ++l)
        headPlans_[l].assign(m.stageForLayer(l).heads, nullptr);
    for (const core::HeadPlan &hp : plan_->heads) {
        VITCOD_ASSERT(hp.layer < layers &&
                          hp.head < headPlans_[hp.layer].size(),
                      "head plan outside model shape");
        headPlans_[hp.layer][hp.head] = &hp.plan;
    }
    for (size_t l = 0; l < layers; ++l) {
        const model::StageConfig &s = m.stageForLayer(l);
        for (size_t h = 0; h < headPlans_[l].size(); ++h) {
            const SparseAttentionPlan *p = headPlans_[l][h];
            VITCOD_ASSERT(p != nullptr, "missing plan for layer ", l,
                          " head ", h);
            VITCOD_ASSERT(p->tokens == s.tokens,
                          "plan token count mismatch at layer ", l);
        }
    }

    // The Schedule IR carries the per-head mask layouts, nnz and MAC
    // counts this executor runs from. Building it is the one place
    // the masks are scanned; the serving path shares the PlanCache's
    // schedule instead of rebuilding.
    if (sched == nullptr) {
        ownSchedule_ = std::make_unique<core::schedule::ModelSchedule>(
            core::schedule::ScheduleBuilder().build(
                *plan_, /*end_to_end=*/false));
        sched = ownSchedule_.get();
    }
    schedule_ = sched;
    VITCOD_ASSERT(schedule_->layers.size() == layers,
                  "schedule does not match the plan's layer count");
    for (size_t l = 0; l < layers; ++l) {
        const core::schedule::LayerSchedule &ls = schedule_->layers[l];
        VITCOD_ASSERT(ls.heads.size() == headPlans_[l].size() &&
                          ls.shape.tokens ==
                              m.stageForLayer(l).tokens,
                      "schedule does not match layer ", l);
        for (const core::schedule::HeadSchedule &hs : ls.heads)
            VITCOD_ASSERT(hs.layout.rowPtr.size() == hs.tokens + 1,
                          "schedule head layout malformed at layer ",
                          l);
    }

    forwardMacs_ = static_cast<MacOps>(m.stages.front().tokens) *
                   cfg_.inDim * m.stages.front().embedDim;
    forwardMacs_ += schedule_->execMacs();
    for (size_t s = 0; s + 1 < m.stages.size(); ++s)
        forwardMacs_ += static_cast<MacOps>(m.stages[s + 1].tokens) *
                        m.stages[s].embedDim *
                        m.stages[s + 1].embedDim;
    forwardMacs_ += static_cast<MacOps>(m.stages.back().embedDim) *
                    cfg_.numClasses;

    arena_.reserveFor(m, cfg_.inDim, cfg_.numClasses, /*batch=*/1);
}

void
ModelExecutor::runLayer(size_t layer, size_t batch, LayerTrace *lt)
{
    const model::StageConfig &s = plan_->model.stageForLayer(layer);
    const BlockWeights &w = weights_.blocks[layer];
    const size_t n = s.tokens;
    const size_t rows = batch * n;
    const size_t d = s.embedDim;
    const size_t hd = s.heads * s.headDim;

    linalg::Matrix &x = arena_.residual();
    VITCOD_ASSERT(x.rows() == rows && x.cols() == d,
                  "residual shape mismatch at layer ", layer);

    VITCOD_TRACE_SPAN("layer", "model_exec", "layer", double(layer),
                      "tokens", double(n));

    // --- attention: LN -> QKV -> per-head sparse attention -------
    // Every sample's rows go through one launch of each row-wise
    // kernel. Slots consumed by *Into callees are acquired
    // shape-free: the callee reshapes (and zeroes) them itself, so
    // pre-shaping here would just clear the buffer twice.
    linalg::Matrix &norm = arena_.at(Slot::kNorm);
    linalg::layerNormRowsInto(x, w.ln1Gamma, w.ln1Beta, norm);

    {
        PhaseTimer phase("qkv", lt ? &lt->qkvSeconds : nullptr,
                         "layer", double(layer));
        engine_->gemmInto(norm, w.wq, arena_.at(Slot::kQ));
        engine_->gemmInto(norm, w.wk, arena_.at(Slot::kK));
        engine_->gemmInto(norm, w.wv, arena_.at(Slot::kV));
    }

    // Overwrite-acquired: the (sample, head) units below write every
    // element (perm is a bijection over rows, heads cover all
    // columns), so the zeroing pass is skipped.
    linalg::Matrix &concat =
        arena_.atOverwrite(Slot::kConcat, rows, hd);
    {
        PhaseTimer phase("attn", lt ? &lt->attnSeconds : nullptr,
                         "layer", double(layer), "heads",
                         double(s.heads));
        const size_t units = batch * s.heads;
        // Each unit times itself into its own slot; the sums run
        // after the join, in a fixed order.
        if (lt)
            unitSeconds_.assign(units, 0.0);
        double *const unit_seconds = lt ? unitSeconds_.data() : nullptr;
        engine_->parallelFor(
            units, schedule_->layers[layer].execMacs.attn * batch,
            [&](size_t u0, size_t u1) {
                for (size_t u = u0; u < u1; ++u)
                    attendHead(layer, u / s.heads, u % s.heads, concat,
                               unit_seconds ? &unit_seconds[u]
                                            : nullptr);
            });
        if (lt)
            for (size_t head = 0; head < s.heads; ++head) {
                HeadTrace &ht = lt->headTraces[head];
                ht.head = head;
                ht.maskNnz = schedule_->layers[layer].heads[head].maskNnz();
                ht.numGlobalTokens =
                    headPlans_[layer][head]->numGlobalTokens;
                for (size_t b = 0; b < batch; ++b)
                    ht.seconds += unit_seconds[b * s.heads + head];
            }
    }

    // --- output projection + residual ----------------------------
    {
        PhaseTimer phase("proj", lt ? &lt->projSeconds : nullptr,
                         "layer", double(layer));
        linalg::Matrix &proj = arena_.at(Slot::kProj);
        engine_->gemmInto(concat, w.wo, proj);
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < d; ++c)
                x(r, c) += proj(r, c);
    }

    // --- MLP + residual ------------------------------------------
    {
        PhaseTimer phase("mlp", lt ? &lt->mlpSeconds : nullptr,
                         "layer", double(layer));
        linalg::layerNormRowsInto(x, w.ln2Gamma, w.ln2Beta, norm);
        linalg::Matrix &hidden = arena_.at(Slot::kHidden);
        engine_->gemmInto(norm, w.fc1, hidden,
                          linalg::engine::Epilogue::Gelu);
        linalg::Matrix &mlp_out = arena_.at(Slot::kMlpOut);
        engine_->gemmInto(hidden, w.fc2, mlp_out);
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < d; ++c)
                x(r, c) += mlp_out(r, c);
    }
}

void
ModelExecutor::attendHead(size_t layer, size_t sample, size_t head,
                          linalg::Matrix &concat, double *seconds) const
{
    const model::StageConfig &s = plan_->model.stageForLayer(layer);
    const size_t n = s.tokens;
    const size_t dk = s.headDim;
    const size_t row0 = sample * n;
    const size_t col0 = head * dk;
    const auto scale = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(dk)));
    const SparseAttentionPlan &hp = *headPlans_[layer][head];
    const linalg::Matrix &q = arena_.at(Slot::kQ);
    const linalg::Matrix &k = arena_.at(Slot::kK);
    const linalg::Matrix &v = arena_.at(Slot::kV);

    // Slice this head's columns of this sample's rows and permute
    // them into the plan's token order in one pass, exactly as the
    // accelerator schedules it.
    thread_local HeadScratch scratch;
    scratch.q.reshapeUninit(n, dk);
    scratch.k.reshapeUninit(n, dk);
    scratch.v.reshapeUninit(n, dk);
    for (size_t i = 0; i < n; ++i) {
        const size_t src = row0 + hp.perm[i];
        for (size_t c = 0; c < dk; ++c) {
            scratch.q(i, c) = q(src, col0 + c);
            scratch.k(i, c) = k(src, col0 + c);
            scratch.v(i, c) = v(src, col0 + c);
        }
    }
    // Execute through the schedule's prebuilt layout: the same
    // CSC/CSR visit order the simulator priced, and no mask scan on
    // the request path.
    const linalg::engine::MaskLayoutView layout =
        schedule_->layers[layer].heads[head].layout.view(
            hp.mask.rows(), hp.mask.cols());
    {
        PhaseTimer head_phase("head", seconds, "layer", double(layer),
                              "head", double(head));
        engine_->sparseAttentionInto(scratch.q, scratch.k, scratch.v,
                                     hp.mask, layout, scale,
                                     scratch.out);
    }
    // Un-permute: permuted row i is original token perm[i].
    for (size_t i = 0; i < n; ++i)
        for (size_t c = 0; c < dk; ++c)
            concat(row0 + hp.perm[i], col0 + c) = scratch.out(i, c);
}

void
ModelExecutor::stageTransition(size_t next_stage, size_t batch)
{
    // LeViT-style pyramid shrink, as a proxy: average-pool each
    // sample's token groups down to the next stage's count, then
    // project the embedding width of all samples in one GEMM. Group
    // boundaries are floor(i * n_old / n_new), handling non-integer
    // ratios (49 -> 16).
    const model::VitModelConfig &m = plan_->model;
    const size_t n_new = m.stages[next_stage].tokens;
    linalg::Matrix &x = arena_.residual();
    const size_t n_old = x.rows() / batch;
    const size_t d_old = x.cols();

    linalg::Matrix &pooled = arena_.residualSpare();
    // every element written below
    pooled.reshapeUninit(batch * n_new, d_old);
    for (size_t b = 0; b < batch; ++b)
        for (size_t i = 0; i < n_new; ++i) {
            const size_t r0 = b * n_old + i * n_old / n_new;
            const size_t r1 = b * n_old + (i + 1) * n_old / n_new;
            const auto inv =
                static_cast<float>(1.0 / static_cast<double>(r1 - r0));
            for (size_t c = 0; c < d_old; ++c) {
                float sum = 0.0f;
                for (size_t r = r0; r < r1; ++r)
                    sum += x(r, c);
                pooled(b * n_new + i, c) = sum * inv;
            }
        }
    arena_.flipResidual();
    engine_->gemmInto(arena_.residual(),
                      weights_.stageProj[next_stage - 1],
                      arena_.residualSpare());
    arena_.flipResidual();
}

void
ModelExecutor::classify(size_t batch)
{
    const size_t d = plan_->model.stages.back().embedDim;
    linalg::Matrix &x = arena_.residual();
    linalg::Matrix &norm = arena_.at(Slot::kNorm);
    linalg::layerNormRowsInto(x, weights_.lnFinalGamma,
                              weights_.lnFinalBeta, norm);
    linalg::Matrix &pooled =
        arena_.atOverwrite(Slot::kPooled, batch, d);
    const size_t n = norm.rows() / batch;
    const auto inv = static_cast<float>(1.0 / static_cast<double>(n));
    for (size_t b = 0; b < batch; ++b)
        for (size_t c = 0; c < d; ++c) {
            double sum = 0.0;
            for (size_t r = b * n; r < (b + 1) * n; ++r)
                sum += norm(r, c);
            pooled(b, c) = static_cast<float>(sum) * inv;
        }
    engine_->gemmInto(pooled, weights_.classifier,
                      arena_.at(Slot::kLogits));
}

void
ModelExecutor::run(std::span<const linalg::Matrix> inputs,
                   ExecTrace *trace)
{
    const model::VitModelConfig &m = plan_->model;
    const size_t batch = inputs.size();
    VITCOD_ASSERT(batch > 0, "empty batch");
    const size_t n0 = m.stages.front().tokens;
    for (const linalg::Matrix &patches : inputs)
        VITCOD_ASSERT(patches.rows() == n0 &&
                          patches.cols() == cfg_.inDim,
                      "patch input shape mismatch");
    // Grows the reservation only when this batch is the largest yet.
    arena_.reserveFor(m, cfg_.inDim, cfg_.numClasses, batch);

    initTrace(trace, batch);
    const linalg::engine::DispatchStats before = engine_->stats();
    VITCOD_TRACE_SPAN("forward", "model_exec", "batch", double(batch));
    const auto t0 = Clock::now();

    {
        PhaseTimer phase("patch_embed",
                         trace ? &trace->patchEmbedSeconds : nullptr,
                         "tokens", double(batch * n0));
        // Stack the samples row-wise; the spare residual buffer is
        // reserved wide enough for the patch features.
        linalg::Matrix &stacked = arena_.residualSpare();
        stacked.reshapeUninit(batch * n0, cfg_.inDim);
        for (size_t b = 0; b < batch; ++b)
            std::copy_n(inputs[b].data(), inputs[b].size(),
                        stacked.rowData(b * n0));
        engine_->gemmInto(stacked, weights_.patchEmbed,
                          arena_.residual());
    }

    size_t stage = 0;
    size_t stage_first_layer = 0;
    for (size_t layer = 0; layer < m.totalLayers(); ++layer) {
        while (layer >= stage_first_layer + m.stages[stage].layers) {
            stage_first_layer += m.stages[stage].layers;
            ++stage;
            stageTransition(stage, batch);
        }
        runLayer(layer, batch, trace ? &trace->layers[layer] : nullptr);
    }

    {
        PhaseTimer phase("classifier",
                         trace ? &trace->classifierSeconds : nullptr,
                         "classes", double(cfg_.numClasses));
        classify(batch);
    }
    finalizeTrace(trace, batch, before, secondsSince(t0));
}

void
ModelExecutor::initTrace(ExecTrace *trace, size_t batch) const
{
    if (!trace)
        return;
    const model::VitModelConfig &m = plan_->model;
    *trace = ExecTrace{};
    trace->model = m.name;
    trace->batch = batch;
    trace->layers.resize(m.totalLayers());
    for (size_t l = 0; l < m.totalLayers(); ++l) {
        const model::StageConfig &s = m.stageForLayer(l);
        LayerTrace &lt = trace->layers[l];
        lt.layer = l;
        lt.tokens = s.tokens;
        lt.heads = s.heads;
        lt.headDim = s.headDim;
        lt.embedDim = s.embedDim;
        lt.headTraces.resize(s.heads);
    }
}

void
ModelExecutor::finalizeTrace(
    ExecTrace *trace, size_t batch,
    const linalg::engine::DispatchStats &before, double seconds) const
{
    if (!trace)
        return;
    trace->totalSeconds = seconds;
    trace->dispatch = engine_->stats() - before;
    trace->totalMacs = forwardMacs() * static_cast<MacOps>(batch);
    for (size_t l = 0; l < trace->layers.size(); ++l)
        trace->layers[l].macs =
            schedule_->layers[l].execMacs.total() *
            static_cast<MacOps>(batch);
}

linalg::Matrix
ModelExecutor::forward(const linalg::Matrix &patches,
                       ExecTrace *trace)
{
    run({&patches, 1}, trace);
    return arena_.at(Slot::kLogits);
}

std::vector<linalg::Matrix>
ModelExecutor::forwardBatch(const std::vector<linalg::Matrix> &inputs,
                            ExecTrace *trace)
{
    run(inputs, trace);

    const linalg::Matrix &all = arena_.at(Slot::kLogits);
    std::vector<linalg::Matrix> logits;
    logits.reserve(inputs.size());
    for (size_t b = 0; b < inputs.size(); ++b) {
        linalg::Matrix row(1, all.cols());
        std::copy_n(all.rowData(b), all.cols(), row.rowData(0));
        logits.push_back(std::move(row));
    }
    return logits;
}

MacOps
ModelExecutor::forwardMacs() const
{
    return forwardMacs_;
}

} // namespace vitcod::core::model_exec
