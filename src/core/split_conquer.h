/**
 * @file
 * ViTCoD's split-and-conquer algorithm (paper Sec. IV-B, Algorithm
 * 1): prune an averaged attention map with a fixed mask, then
 * reorder tokens so that "global" tokens — columns attended by most
 * queries — cluster at the front as a *denser* pattern while the
 * remainder forms a highly *sparser*, diagonal-dominated pattern.
 * The result polarizes the attention workload into exactly two
 * levels, which the two-pronged accelerator exploits.
 */

#ifndef VITCOD_CORE_SPLIT_CONQUER_H
#define VITCOD_CORE_SPLIT_CONQUER_H

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "sparse/formats.h"

namespace vitcod::core {

/** How the pruning budget is selected. */
enum class PruneMode
{
    /**
     * Keep, per query row, the smallest top-score set whose
     * cumulative normalized mass reaches theta_p (the paper's prose:
     * "for each query, we select only attentions of high value ...").
     */
    MassPerQuery,
    /**
     * Keep the globally top-scored entries until the cumulative mass
     * over the whole map reaches theta_p (Algorithm 1 line 1-6 taken
     * literally, with a single Argsort over A).
     */
    MassGlobal,
    /**
     * Keep exactly the top round((1-target_sparsity)*n) entries
     * (at least one) of each row: pins the mask at an exact sparsity
     * ratio, which is how the paper's hardware sweeps
     * (60/70/80/90/95%) are run. Ties at the row budget go to the
     * lower column.
     */
    TargetSparsity,
};

/** Configuration of Algorithm 1. */
struct SplitConquerConfig
{
    PruneMode mode = PruneMode::TargetSparsity;

    /** theta_p: cumulative information mass to keep (Mass* modes). */
    double massThreshold = 0.90;

    /**
     * Target fraction of pruned entries (TargetSparsity mode); must
     * lie in [0, 1].
     */
    double targetSparsity = 0.90;

    /**
     * theta_d as a fraction of n: a column whose surviving nonzero
     * count exceeds denseColFrac * n is declared a global token.
     */
    double denseColFrac = 0.30;

    /**
     * Use Algorithm 1's literal selection-swap reordering (global
     * tokens stable, displaced locals scattered). When false, a
     * stable partition keeps the relative order of non-global tokens
     * — preserving more of the diagonal; provided for the ablation
     * of the reordering step.
     */
    bool literalSwapReorder = true;
};

/** Result of pruning + reordering one attention map. */
struct SparseAttentionPlan
{
    size_t tokens = 0;

    /** Pruned mask in the *reordered* token order. */
    sparse::BitMask mask;

    /**
     * Token permutation: new position i holds original token
     * perm[i]. Applies symmetrically to rows and columns.
     */
    std::vector<uint32_t> perm;

    /** N_gt: number of global tokens, fronted by the reordering. */
    size_t numGlobalTokens = 0;

    /** Fraction of map entries pruned. */
    double sparsity = 0.0;

    /** Fraction of the original attention mass the mask retains. */
    double retainedMass = 0.0;

    /** Mask nonzeros falling in the denser (global) columns. */
    size_t denserNnz = 0;

    /** Mask nonzeros in the sparser remainder columns. */
    size_t sparserNnz = 0;

    /**
     * CSC index structure of the sparser columns ([numGlobalTokens,
     * tokens)), exactly what the accelerator's IdxBuf pre-loads.
     */
    sparse::Csc sparserCsc;
};

/**
 * Step 1 of Algorithm 1: prune an averaged, row-normalized attention
 * map to a fixed binary mask.
 *
 * Every mode ranks entries by one total order: value descending,
 * then index ascending (column within a row, row-major position
 * across the map). Equal values, +0 and -0 included, therefore go
 * to the lower index, and the mask is a pure function of the map.
 *
 * @param a n x n attention map with rows summing to ~1.
 * @param cfg Pruning configuration.
 * @return Binary mask in the *original* token order.
 */
sparse::BitMask pruneAttention(const linalg::Matrix &a,
                               const SplitConquerConfig &cfg);

/** Result of the reordering step alone. */
struct Reordering
{
    std::vector<uint32_t> perm;
    size_t numGlobalTokens = 0;
};

/**
 * The effective theta_d used by reordering: a column counts as a
 * global token when its surviving nonzeros exceed
 * max(denseColFrac, 1.5 * mask density) * n — the density floor
 * keeps low-sparsity masks from fronting ordinary columns.
 */
double effectiveDenseThreshold(const sparse::BitMask &mask,
                               const SplitConquerConfig &cfg);

/**
 * Step 2 of Algorithm 1: find global tokens (columns with more than
 * theta_d surviving nonzeros) and build the permutation moving them
 * to the front.
 */
Reordering reorderTokens(const sparse::BitMask &mask,
                         const SplitConquerConfig &cfg);

/**
 * Full Algorithm 1: prune, reorder, split into denser/sparser
 * workloads and build the sparser CSC index stream.
 */
SparseAttentionPlan splitConquer(const linalg::Matrix &a,
                                 const SplitConquerConfig &cfg);

/**
 * Variant that skips reordering (identity permutation, Ngt = 0):
 * the "pruning only" arm of the paper's Sec. VI-C ablation.
 */
SparseAttentionPlan pruneOnly(const linalg::Matrix &a,
                              const SplitConquerConfig &cfg);

/**
 * Variant that skips pruning (full mask) but still reorders using a
 * mask thresholded at the map's mean value: the "reordering only"
 * ablation arm. The returned mask keeps every entry.
 */
SparseAttentionPlan reorderOnly(const linalg::Matrix &a,
                                const SplitConquerConfig &cfg);

} // namespace vitcod::core

#endif // VITCOD_CORE_SPLIT_CONQUER_H
