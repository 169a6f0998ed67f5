#include "reference_block.h"

#include <cmath>

#include "common/logging.h"
#include "linalg/kernels.h"
#include "linalg/sparse_kernels.h"

namespace vitcod::core {

BlockWeights
BlockWeights::random(const model::StageConfig &stage, Rng &rng)
{
    const size_t d = stage.embedDim;
    const size_t hd = stage.heads * stage.headDim;
    const size_t hidden = stage.mlpRatio * d;
    auto init = [&](size_t rows, size_t cols) {
        return linalg::Matrix::randomNormal(
            rows, cols, rng, 0.0f,
            static_cast<float>(
                1.0 / std::sqrt(static_cast<double>(rows))));
    };
    BlockWeights w;
    w.wq = init(d, hd);
    w.wk = init(d, hd);
    w.wv = init(d, hd);
    w.wo = init(hd, d);
    w.fc1 = init(d, hidden);
    w.fc2 = init(hidden, d);
    w.ln1Gamma.assign(d, 1.0f);
    w.ln1Beta.assign(d, 0.0f);
    w.ln2Gamma.assign(d, 1.0f);
    w.ln2Beta.assign(d, 0.0f);
    return w;
}

ReferenceBlock::ReferenceBlock(model::StageConfig stage,
                               BlockWeights weights,
                               const linalg::engine::KernelEngine *eng)
    : stage_(stage), w_(std::move(weights)), engine_(eng)
{
    VITCOD_ASSERT(engine_ != nullptr, "null kernel engine");
    VITCOD_ASSERT(w_.wq.rows() == stage_.embedDim &&
                      w_.wq.cols() == stage_.heads * stage_.headDim,
                  "weight shape mismatch");
}

linalg::Matrix
ReferenceBlock::headSlice(const linalg::Matrix &m, size_t head) const
{
    const size_t dk = stage_.headDim;
    linalg::Matrix out(m.rows(), dk);
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < dk; ++c)
            out(r, c) = m(r, head * dk + c);
    return out;
}

linalg::Matrix
ReferenceBlock::layerNorm(const linalg::Matrix &x,
                          const std::vector<float> &gamma,
                          const std::vector<float> &beta) const
{
    linalg::Matrix out;
    linalg::layerNormRowsInto(x, gamma, beta, out);
    return out;
}

linalg::Matrix
ReferenceBlock::attentionDense(const linalg::Matrix &x) const
{
    const size_t n = x.rows();
    const size_t dk = stage_.headDim;
    const size_t h = stage_.heads;
    const auto scale = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(dk)));

    const linalg::Matrix q = engine_->gemm(x, w_.wq);
    const linalg::Matrix k = engine_->gemm(x, w_.wk);
    const linalg::Matrix v = engine_->gemm(x, w_.wv);

    linalg::Matrix concat(n, h * dk);
    for (size_t head = 0; head < h; ++head) {
        linalg::Matrix s = linalg::gemmTransB(headSlice(q, head),
                                              headSlice(k, head));
        linalg::scaleInPlace(s, scale);
        const linalg::Matrix out = engine_->gemm(
            linalg::softmaxRows(s), headSlice(v, head));
        for (size_t r = 0; r < n; ++r)
            for (size_t c = 0; c < dk; ++c)
                concat(r, head * dk + c) = out(r, c);
    }
    return engine_->gemm(concat, w_.wo);
}

linalg::Matrix
ReferenceBlock::attentionSparse(
    const linalg::Matrix &x,
    const std::vector<SparseAttentionPlan> &plans) const
{
    const size_t n = x.rows();
    const size_t dk = stage_.headDim;
    const size_t h = stage_.heads;
    VITCOD_ASSERT(plans.size() == h, "one plan per head required");
    const auto scale = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(dk)));

    const linalg::Matrix q = engine_->gemm(x, w_.wq);
    const linalg::Matrix k = engine_->gemm(x, w_.wk);
    const linalg::Matrix v = engine_->gemm(x, w_.wv);

    linalg::Matrix concat(n, h * dk);
    for (size_t head = 0; head < h; ++head) {
        const auto &plan = plans[head];
        VITCOD_ASSERT(plan.tokens == n, "plan token count mismatch");
        // Execute in the plan's permuted token order, exactly as
        // the accelerator schedules it.
        const linalg::Matrix qp =
            linalg::permuteRows(headSlice(q, head), plan.perm);
        const linalg::Matrix kp =
            linalg::permuteRows(headSlice(k, head), plan.perm);
        const linalg::Matrix vp =
            linalg::permuteRows(headSlice(v, head), plan.perm);
        const linalg::Matrix outp =
            engine_->sparseAttention(qp, kp, vp, plan.mask, scale);
        // Un-permute: permuted row i is original token perm[i].
        for (size_t i = 0; i < n; ++i)
            for (size_t c = 0; c < dk; ++c)
                concat(plan.perm[i], head * dk + c) = outp(i, c);
    }
    return linalg::gemm(concat, w_.wo);
}

linalg::Matrix
ReferenceBlock::forwardDense(const linalg::Matrix &x) const
{
    const linalg::Matrix attn =
        attentionDense(layerNorm(x, w_.ln1Gamma, w_.ln1Beta));
    const linalg::Matrix mid = linalg::axpby(1.0f, x, 1.0f, attn);
    linalg::Matrix hidden = engine_->gemm(
        layerNorm(mid, w_.ln2Gamma, w_.ln2Beta), w_.fc1);
    linalg::geluInPlace(hidden);
    return linalg::axpby(1.0f, mid, 1.0f,
                         engine_->gemm(hidden, w_.fc2));
}

linalg::Matrix
ReferenceBlock::forwardSparse(
    const linalg::Matrix &x,
    const std::vector<SparseAttentionPlan> &plans) const
{
    const linalg::Matrix attn = attentionSparse(
        layerNorm(x, w_.ln1Gamma, w_.ln1Beta), plans);
    const linalg::Matrix mid = linalg::axpby(1.0f, x, 1.0f, attn);
    linalg::Matrix hidden = engine_->gemm(
        layerNorm(mid, w_.ln2Gamma, w_.ln2Beta), w_.fc1);
    linalg::geluInPlace(hidden);
    return linalg::axpby(1.0f, mid, 1.0f,
                         engine_->gemm(hidden, w_.fc2));
}

} // namespace vitcod::core
