/**
 * @file
 * Reusable activation storage for a full-model forward pass over a
 * batch of samples stacked row-wise (B*n rows). The arena owns one
 * matrix per named slot; reserveFor() sizes every slot to the
 * model's worst-case stage shapes times a batch size, and at() then
 * reshapes in place (matrix capacity is retained across reshapes),
 * so a steady-state forward pass performs zero activation
 * allocations — growths() counts the acquisitions that went past
 * the reservation, and tests pin it at 0.
 *
 * The residual stream is ping-pong buffered (kX0/kX1 via
 * flipResidual()): stage transitions read the old token grid from
 * one buffer while writing the pooled grid into the other, with no
 * aliasing and no copy-back.
 *
 * An arena belongs to exactly one executor (one thread); it keeps
 * no locks.
 */

#ifndef VITCOD_CORE_MODEL_EXEC_BUFFER_ARENA_H
#define VITCOD_CORE_MODEL_EXEC_BUFFER_ARENA_H

#include <array>
#include <cstddef>

#include "linalg/matrix.h"
#include "model/vit_config.h"

namespace vitcod::core::model_exec {

/** Named activation buffers of one forward pass. */
enum class Slot : size_t
{
    kX0,      //!< residual stream, ping
    kX1,      //!< residual stream, pong
    kNorm,    //!< LayerNorm output feeding attention / MLP
    kQ,       //!< Q projection, all heads concatenated
    kK,       //!< K projection
    kV,       //!< V projection
    kConcat,  //!< all heads' outputs, original token order
    kProj,    //!< attention output projection
    kHidden,  //!< MLP hidden activation
    kMlpOut,  //!< MLP down-projection
    kPooled,  //!< classifier token pool (B x d)
    kLogits,  //!< classifier output (B x classes)
    kCount,
};

/** Fixed set of reusable activation matrices. */
class BufferArena
{
  public:
    BufferArena() = default;

    BufferArena(const BufferArena &) = delete;
    BufferArena &operator=(const BufferArena &) = delete;

    /**
     * Pre-size every slot for @p batch stacked samples of @p model
     * so no later at() call grows a buffer. @p in_dim is the
     * patch-feature width entering the embedding, @p num_classes the
     * classifier width. A reservation only ever grows: a call for a
     * smaller batch than an earlier one changes nothing.
     */
    void reserveFor(const model::VitModelConfig &model, size_t in_dim,
                    size_t num_classes, size_t batch);

    /**
     * The slot's matrix reshaped (and zeroed) to rows x cols.
     * Reuses the slot's capacity; growths() increments if the shape
     * exceeds everything this slot has held before.
     */
    linalg::Matrix &at(Slot s, size_t rows, size_t cols);

    /**
     * Like at(rows, cols) but without the zero pass: element values
     * are stale. Only for slots the caller overwrites in full
     * before reading (permute/pool destinations).
     */
    linalg::Matrix &atOverwrite(Slot s, size_t rows, size_t cols);

    /**
     * The slot's matrix at its current shape: for read-back, or as
     * the destination of an *Into call (gemmInto, layerNormRowsInto)
     * that reshapes the buffer itself — acquiring shape-free avoids
     * zeroing the buffer twice.
     */
    linalg::Matrix &at(Slot s);
    const linalg::Matrix &at(Slot s) const;

    /** Swap which of kX0/kX1 residual() returns. */
    void flipResidual();

    /** The current residual-stream buffer (kX0 or kX1). */
    linalg::Matrix &residual();

    /** The other residual buffer (stage-transition write target). */
    linalg::Matrix &residualSpare();

    /** Slot acquisitions that had to grow past their reservation. */
    size_t growths() const { return growths_; }

    /** Total bytes currently reserved across all slots. */
    size_t footprintBytes() const;

  private:
    std::array<linalg::Matrix, static_cast<size_t>(Slot::kCount)>
        slots_;
    std::array<size_t, static_cast<size_t>(Slot::kCount)> reserved_{};
    size_t growths_ = 0;
    bool residualIsX1_ = false;
};

} // namespace vitcod::core::model_exec

#endif // VITCOD_CORE_MODEL_EXEC_BUFFER_ARENA_H
