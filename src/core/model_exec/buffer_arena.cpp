#include "core/model_exec/buffer_arena.h"

#include <algorithm>

#include "common/logging.h"

namespace vitcod::core::model_exec {

namespace {

size_t
idx(Slot s)
{
    return static_cast<size_t>(s);
}

} // namespace

void
BufferArena::reserveFor(const model::VitModelConfig &model,
                        size_t in_dim, size_t num_classes, size_t batch)
{
    const size_t rows = batch * model.maxTokens();
    const size_t d = model.maxEmbedDim();
    const size_t hd = model.maxHeadConcat();
    const size_t hidden = model.maxMlpHidden();
    const size_t stream = std::max({d, in_dim});

    auto reserve = [&](Slot s, size_t r, size_t c) {
        if (r * c <= reserved_[idx(s)])
            return;
        slots_[idx(s)].resize(r, c);
        reserved_[idx(s)] = r * c;
    };
    reserve(Slot::kX0, rows, stream);
    reserve(Slot::kX1, rows, stream);
    reserve(Slot::kNorm, rows, d);
    reserve(Slot::kQ, rows, hd);
    reserve(Slot::kK, rows, hd);
    reserve(Slot::kV, rows, hd);
    reserve(Slot::kConcat, rows, hd);
    reserve(Slot::kProj, rows, d);
    reserve(Slot::kHidden, rows, hidden);
    reserve(Slot::kMlpOut, rows, d);
    reserve(Slot::kPooled, batch, d);
    reserve(Slot::kLogits, batch, num_classes);
}

linalg::Matrix &
BufferArena::at(Slot s, size_t rows, size_t cols)
{
    VITCOD_ASSERT(s < Slot::kCount, "bad arena slot");
    linalg::Matrix &m = slots_[idx(s)];
    if (rows * cols > reserved_[idx(s)]) {
        ++growths_;
        reserved_[idx(s)] = rows * cols;
    }
    m.resize(rows, cols);
    return m;
}

linalg::Matrix &
BufferArena::atOverwrite(Slot s, size_t rows, size_t cols)
{
    VITCOD_ASSERT(s < Slot::kCount, "bad arena slot");
    linalg::Matrix &m = slots_[idx(s)];
    if (rows * cols > reserved_[idx(s)]) {
        ++growths_;
        reserved_[idx(s)] = rows * cols;
    }
    m.reshapeUninit(rows, cols);
    return m;
}

linalg::Matrix &
BufferArena::at(Slot s)
{
    VITCOD_ASSERT(s < Slot::kCount, "bad arena slot");
    return slots_[idx(s)];
}

const linalg::Matrix &
BufferArena::at(Slot s) const
{
    VITCOD_ASSERT(s < Slot::kCount, "bad arena slot");
    return slots_[idx(s)];
}

void
BufferArena::flipResidual()
{
    residualIsX1_ = !residualIsX1_;
}

linalg::Matrix &
BufferArena::residual()
{
    return slots_[idx(residualIsX1_ ? Slot::kX1 : Slot::kX0)];
}

linalg::Matrix &
BufferArena::residualSpare()
{
    return slots_[idx(residualIsX1_ ? Slot::kX0 : Slot::kX1)];
}

size_t
BufferArena::footprintBytes() const
{
    size_t bytes = 0;
    for (const auto &m : slots_)
        bytes += m.capacity() * sizeof(float);
    return bytes;
}

} // namespace vitcod::core::model_exec
