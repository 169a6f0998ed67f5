#include "split_conquer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "common/logging.h"

namespace vitcod::core {

namespace {

/**
 * Sort key of an entry with value @p v at index @p idx under the
 * selection's total order: value descending, then index ascending.
 * The float's bits become an unsigned image that orders like the
 * value (negatives flipped, -0 folded onto +0), inverted so that
 * larger values come first, with the index in the low word. Keys in
 * ascending order are therefore the total order, and a plain integer
 * compare ranks any two finite values as `>` on the floats does.
 */
uint64_t
orderKey(float v, uint32_t idx)
{
    if (v == 0.0f)
        v = 0.0f;
    const auto bits = std::bit_cast<uint32_t>(v);
    const uint32_t ascending =
        (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
    return (static_cast<uint64_t>(~ascending) << 32) | idx;
}

/** Index a key was built from. */
uint32_t
keyIndex(uint64_t key)
{
    return static_cast<uint32_t>(key);
}

/** Fill @p keys with the order keys of row @p r, indexed by column. */
void
rowKeys(const linalg::Matrix &a, size_t r, std::vector<uint64_t> &keys)
{
    keys.resize(a.cols());
    for (size_t c = 0; c < a.cols(); ++c)
        keys[c] = orderKey(a(r, c), static_cast<uint32_t>(c));
}

sparse::BitMask
pruneMassPerQuery(const linalg::Matrix &a, double theta_p)
{
    const size_t n = a.rows();
    sparse::BitMask mask(n, a.cols());
    std::vector<uint64_t> keys;
    for (size_t r = 0; r < n; ++r) {
        double row_sum = 0.0;
        for (size_t c = 0; c < a.cols(); ++c)
            row_sum += a(r, c);
        VITCOD_ASSERT(row_sum > 0.0, "attention row has no mass");
        rowKeys(a, r, keys);
        std::sort(keys.begin(), keys.end());
        double cum = 0.0;
        for (uint64_t key : keys) {
            if (cum >= theta_p * row_sum)
                break;
            const uint32_t c = keyIndex(key);
            mask.set(r, c, true);
            cum += a(r, c);
        }
    }
    return mask;
}

sparse::BitMask
pruneMassGlobal(const linalg::Matrix &a, double theta_p)
{
    const size_t n = a.rows();
    const size_t m = a.cols();
    VITCOD_ASSERT(n * m <= (uint64_t{1} << 32),
                  "attention map too large for 32-bit entry indices");
    std::vector<uint64_t> keys;
    keys.reserve(n * m);
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < m; ++c) {
            keys.push_back(
                orderKey(a(r, c), static_cast<uint32_t>(r * m + c)));
            total += a(r, c);
        }
    }
    std::sort(keys.begin(), keys.end());

    sparse::BitMask mask(n, m);
    double cum = 0.0;
    for (uint64_t key : keys) {
        if (cum >= theta_p * total)
            break;
        const size_t r = keyIndex(key) / m;
        const size_t c = keyIndex(key) % m;
        mask.set(r, c, true);
        cum += a(r, c);
    }
    return mask;
}

sparse::BitMask
pruneTargetSparsity(const linalg::Matrix &a, double sparsity)
{
    VITCOD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                  "targetSparsity must lie in [0, 1], got ", sparsity);
    const size_t n = a.rows();
    const size_t m = a.cols();
    const auto keep = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround((1.0 - sparsity) * static_cast<double>(m))));
    sparse::BitMask mask(n, m);
    // Only the set of the row's top `keep` keys matters, not their
    // order: select it instead of sorting the row.
    std::vector<uint64_t> keys;
    for (size_t r = 0; r < n; ++r) {
        rowKeys(a, r, keys);
        const auto budget = keys.begin() + static_cast<ptrdiff_t>(keep);
        std::nth_element(keys.begin(), budget, keys.end());
        for (auto it = keys.begin(); it != budget; ++it)
            mask.set(r, keyIndex(*it), true);
    }
    return mask;
}

double
retainedMassOf(const linalg::Matrix &a, const sparse::BitMask &mask)
{
    double kept = 0.0;
    double total = 0.0;
    for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t c = 0; c < a.cols(); ++c) {
            total += a(r, c);
            if (mask.get(r, c))
                kept += a(r, c);
        }
    }
    return total > 0 ? kept / total : 0.0;
}

/** Assemble a plan from an original-order mask plus a reordering. */
SparseAttentionPlan
assemblePlan(const linalg::Matrix &a, const sparse::BitMask &mask0,
             const Reordering &reo)
{
    const size_t n = mask0.rows();
    SparseAttentionPlan plan;
    plan.tokens = n;
    plan.perm = reo.perm;
    plan.numGlobalTokens = reo.numGlobalTokens;
    plan.mask = mask0.permuteSymmetric(reo.perm);
    plan.sparsity = plan.mask.sparsity();
    plan.retainedMass = retainedMassOf(a, mask0);

    size_t denser = 0;
    for (size_t c = 0; c < plan.numGlobalTokens; ++c)
        denser += plan.mask.nnzInCol(c);
    plan.denserNnz = denser;
    plan.sparserNnz = plan.mask.nnz() - denser;

    if (plan.numGlobalTokens < n) {
        plan.sparserCsc = sparse::Csc::fromMask(
            plan.mask.sliceCols(plan.numGlobalTokens, n));
    }
    return plan;
}

} // namespace

sparse::BitMask
pruneAttention(const linalg::Matrix &a, const SplitConquerConfig &cfg)
{
    VITCOD_ASSERT(a.rows() == a.cols(), "attention map must be square");
    switch (cfg.mode) {
      case PruneMode::MassPerQuery:
        return pruneMassPerQuery(a, cfg.massThreshold);
      case PruneMode::MassGlobal:
        return pruneMassGlobal(a, cfg.massThreshold);
      case PruneMode::TargetSparsity:
        return pruneTargetSparsity(a, cfg.targetSparsity);
      default:
        panic("bad PruneMode");
    }
}

double
effectiveDenseThreshold(const sparse::BitMask &mask,
                        const SplitConquerConfig &cfg)
{
    // The 1.5x-density floor keeps low-sparsity masks from fronting
    // ordinary columns; the 0.92 cap keeps near-dense masks from
    // excluding everything (a dense map belongs on the denser
    // engine wholesale).
    const double frac = std::min(
        0.92, std::max(cfg.denseColFrac, 1.5 * mask.density()));
    return frac * static_cast<double>(mask.cols());
}

Reordering
reorderTokens(const sparse::BitMask &mask, const SplitConquerConfig &cfg)
{
    const size_t n = mask.cols();
    const double theta_d = effectiveDenseThreshold(mask, cfg);

    Reordering reo;
    reo.perm.resize(n);
    std::iota(reo.perm.begin(), reo.perm.end(), 0);

    if (cfg.literalSwapReorder) {
        // Algorithm 1 lines 7-13, literally: scan columns of the
        // original map; when column i qualifies as global, swap it
        // into the next front slot.
        for (size_t i = 0; i < n; ++i) {
            if (static_cast<double>(mask.nnzInCol(i)) > theta_d) {
                std::swap(reo.perm[reo.numGlobalTokens], reo.perm[i]);
                ++reo.numGlobalTokens;
            }
        }
    } else {
        // Stable variant: globals first, both halves keep relative
        // order (preserves the remaining diagonal fully).
        std::vector<uint32_t> globals;
        std::vector<uint32_t> locals;
        for (size_t i = 0; i < n; ++i) {
            if (static_cast<double>(mask.nnzInCol(i)) > theta_d)
                globals.push_back(static_cast<uint32_t>(i));
            else
                locals.push_back(static_cast<uint32_t>(i));
        }
        reo.numGlobalTokens = globals.size();
        std::copy(locals.begin(), locals.end(),
                  std::copy(globals.begin(), globals.end(),
                            reo.perm.begin()));
    }
    return reo;
}

SparseAttentionPlan
splitConquer(const linalg::Matrix &a, const SplitConquerConfig &cfg)
{
    const sparse::BitMask mask0 = pruneAttention(a, cfg);
    const Reordering reo = reorderTokens(mask0, cfg);
    return assemblePlan(a, mask0, reo);
}

SparseAttentionPlan
pruneOnly(const linalg::Matrix &a, const SplitConquerConfig &cfg)
{
    const sparse::BitMask mask0 = pruneAttention(a, cfg);
    Reordering identity;
    identity.perm.resize(mask0.rows());
    std::iota(identity.perm.begin(), identity.perm.end(), 0);
    identity.numGlobalTokens = 0;
    return assemblePlan(a, mask0, identity);
}

SparseAttentionPlan
reorderOnly(const linalg::Matrix &a, const SplitConquerConfig &cfg)
{
    const size_t n = a.rows();
    // Detect global tokens from a mean-thresholded pseudo-mask, then
    // keep the *full* (unpruned) map reordered.
    double mean = 0.0;
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            mean += a(r, c);
    mean /= static_cast<double>(n * n);

    sparse::BitMask pseudo(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            pseudo.set(r, c, a(r, c) > mean);

    const Reordering reo = reorderTokens(pseudo, cfg);

    sparse::BitMask full(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            full.set(r, c, true);
    return assemblePlan(a, full, reo);
}

} // namespace vitcod::core
