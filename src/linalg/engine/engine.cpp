#include "linalg/engine/engine.h"

#include <algorithm>
#include <cstdlib>

#include "linalg/engine/kernels_opt.h" //!< mask structure helpers
#include "linalg/kernels.h"
#include "linalg/sparse_kernels.h"
#include "obs/trace.h"

namespace vitcod::linalg::engine {

namespace {

enum Counter : size_t
{
    kGemmRef,
    kGemmOpt,
    kSddmmRef,
    kSddmmCsr,
    kSddmmCsc,
    kSoftmaxRef,
    kSoftmaxOpt,
    kSpmmRef,
    kSpmmOpt,
    kParallel,
    // Per-ISA launch counters; kIsaFirst + IsaLevel value.
    kIsaFirst,
};

/** Auto tier: below this many MACs, the scalar reference runs. */
constexpr size_t kMinOptimizedMacs = 2048;

/**
 * Row-chunk alignment of parallel launches: the GEMM register tile
 * height (MR) of the vector panels, so only a launch's last chunk
 * ends in a short row tile.
 */
constexpr size_t kChunkRows = 4;

/** Name of the KernelVariant a reference dispatch executes. */
const char *
referenceVariantName()
{
    return variantName({KernelTier::Reference, IsaLevel::Scalar});
}

} // namespace

MaskLayout
buildMaskLayout(const sparse::BitMask &mask, double cscSparsityThreshold)
{
    MaskLayout layout;
    maskToCsrStructure(mask, layout.rowPtr, layout.colIdx);
    const auto nnz = static_cast<double>(layout.colIdx.size());
    layout.useCsc =
        nnz < (1.0 - cscSparsityThreshold) *
                  static_cast<double>(mask.rows() * mask.cols());
    if (layout.useCsc)
        csrToCscStructure(mask.rows(), mask.cols(), layout.rowPtr,
                          layout.colIdx, layout.colPtr, layout.rowIdx);
    return layout;
}

KernelEngine::KernelEngine(EngineConfig cfg, ThreadPool *pool)
    : cfg_(cfg), pool_(pool),
      kernels_(isa::isaKernelTable(isa::resolveIsa(
          cfg_.isa, isa::hostCpuFeatures(), std::getenv("VITCOD_ISA"))))
{
    for (auto &c : counters_)
        c.store(0, std::memory_order_relaxed);
}

KernelVariant
KernelEngine::variant() const
{
    if (cfg_.tier == KernelTier::Reference)
        return {KernelTier::Reference, IsaLevel::Scalar};
    return {KernelTier::Optimized, isaLevel()};
}

IsaLevel
KernelEngine::isaLevel() const
{
    return kernels_->level;
}

void
KernelEngine::noteIsaLaunch(IsaLevel level) const
{
    counters_[kIsaFirst + static_cast<size_t>(level)].fetch_add(
        1, std::memory_order_relaxed);
}

const isa::IsaKernelTable &
KernelEngine::kernelsForLaunch() const
{
    noteIsaLaunch(kernels_->level);
    return *kernels_;
}

bool
KernelEngine::useOptimized(size_t macs) const
{
    if (cfg_.tier)
        return *cfg_.tier == KernelTier::Optimized;
    return macs >= kMinOptimizedMacs;
}

bool
KernelEngine::useParallel(size_t macs) const
{
    return pool_ && macs >= cfg_.minParallelMacs;
}

void
KernelEngine::forPanels(
    size_t rows, size_t macs,
    const std::function<void(size_t, size_t)> &body) const
{
    if (!useParallel(macs)) {
        body(0, rows);
        return;
    }
    // One chunk per participating thread (workers plus the caller).
    // A launch nested in a pool task runs inline and is not counted.
    const size_t parts = pool_->threads() + 1;
    const size_t per_part = (rows + parts - 1) / parts;
    const size_t grain =
        (per_part + kChunkRows - 1) / kChunkRows * kChunkRows;
    if (pool_->parallelFor(0, rows, grain, body))
        counters_[kParallel].fetch_add(1, std::memory_order_relaxed);
}

void
KernelEngine::parallelFor(
    size_t units, size_t macs,
    const std::function<void(size_t, size_t)> &body) const
{
    if (!useParallel(macs)) {
        body(0, units);
        return;
    }
    if (pool_->parallelFor(0, units, 1, body))
        counters_[kParallel].fetch_add(1, std::memory_order_relaxed);
}

void
KernelEngine::gemmInto(const Matrix &a, const Matrix &b, Matrix &c,
                       Epilogue ep) const
{
    const size_t macs = a.rows() * a.cols() * b.cols();
    obs::SpanGuard span("gemm", "engine", "m", double(a.rows()),
                        "macs", double(macs));
    if (!useOptimized(macs)) {
        counters_[kGemmRef].fetch_add(1, std::memory_order_relaxed);
        span.argStr("variant", referenceVariantName());
        linalg::gemmInto(a, b, c);
        if (ep == Epilogue::Gelu)
            linalg::geluInPlace(c);
        return;
    }
    VITCOD_ASSERT(a.cols() == b.rows(), "gemm shape mismatch");
    counters_[kGemmOpt].fetch_add(1, std::memory_order_relaxed);
    const isa::IsaKernelTable &kt = kernelsForLaunch();
    span.argStr("variant",
                variantName({KernelTier::Optimized, kt.level}));
    if (a.cols() == 0) {
        c.resize(a.rows(), b.cols()); // empty sums; gelu(0) == 0
        return;
    }
    c.reshapeUninit(a.rows(), b.cols()); // panels write every row
    forPanels(a.rows(), macs, [&](size_t r0, size_t r1) {
        kt.gemmPanel(a, b, c, r0, r1, ep);
    });
}

void
KernelEngine::sddmmInto(const Matrix &q, const Matrix &k,
                        const MaskLayoutView &layout, float scale,
                        std::vector<float> &values) const
{
    VITCOD_ASSERT(q.cols() == k.cols(), "sddmm feature dim mismatch");
    VITCOD_ASSERT(layout.rows == q.rows() && layout.cols == k.rows(),
                  "sddmm mask shape mismatch");
    const size_t nnz = layout.colIdx->size();
    const size_t macs = nnz * q.cols();
    obs::SpanGuard span("sddmm", "engine", "nnz", double(nnz), "rows",
                        double(layout.rows));
    values.resize(nnz);

    const isa::IsaKernelTable &kt = kernelsForLaunch();
    span.argStr("variant",
                variantName({KernelTier::Optimized, kt.level}));
    if (layout.useCsc) {
        // Sparser region: K-stationary CSC walk, then an O(nnz)
        // scatter back into the CSR slots.
        counters_[kSddmmCsc].fetch_add(1, std::memory_order_relaxed);
        // Per-thread scratch: the serve loop calls this per token,
        // so the CSC staging buffer must not malloc per call. The
        // lambda must use the hoisted pointer — a thread_local
        // named inside it would resolve to the pool worker's own
        // (empty) instance.
        static thread_local std::vector<float> csc_values;
        csc_values.resize(nnz);
        float *const csc_data = csc_values.data();
        forPanels(layout.cols, macs, [&](size_t c0, size_t c1) {
            kt.sddmmCscPanel(q, k, *layout.colPtr, *layout.rowIdx,
                             csc_data, c0, c1, scale);
        });
        cscValuesToCsr(layout.rows, *layout.colPtr, *layout.rowIdx,
                       csc_values, *layout.rowPtr, values);
    } else {
        counters_[kSddmmCsr].fetch_add(1, std::memory_order_relaxed);
        forPanels(layout.rows, macs, [&](size_t r0, size_t r1) {
            kt.sddmmCsrPanel(q, k, *layout.rowPtr, *layout.colIdx,
                             values.data(), r0, r1, scale);
        });
    }
}

void
KernelEngine::sparseAttentionInto(const Matrix &q, const Matrix &k,
                                  const Matrix &v,
                                  const sparse::BitMask &mask,
                                  const MaskLayoutView &layout,
                                  float scale, Matrix &out) const
{
    // Dense upper bound for dispatch: the tier choice depends on
    // the shape alone, never on the layout.
    const size_t macs_bound = mask.rows() * mask.cols() * q.cols();
    if (!useOptimized(macs_bound)) {
        counters_[kSddmmRef].fetch_add(1, std::memory_order_relaxed);
        counters_[kSoftmaxRef].fetch_add(1, std::memory_order_relaxed);
        counters_[kSpmmRef].fetch_add(1, std::memory_order_relaxed);
        // Copy-assign (not move): the vector copy reuses @p out's
        // capacity, keeping arena-backed callers allocation-stable.
        const Matrix ref = linalg::spmm(
            linalg::maskedSoftmaxRows(linalg::sddmm(q, k, mask, scale)),
            v);
        out = ref;
        return;
    }
    VITCOD_ASSERT(mask.cols() == v.rows(), "spmm shape mismatch");
    VITCOD_ASSERT(layout.rows == mask.rows() &&
                      layout.cols == mask.cols(),
                  "layout does not describe this mask");
    // Fused: values flow through SDDMM -> softmax -> SpMM in place —
    // no Csr materialization, no revalidation between stages.
    const isa::IsaKernelTable &kt = *kernels_;
    obs::SpanGuard span("sparse_attention", "engine", "nnz",
                        double(layout.colIdx->size()), "rows",
                        double(layout.rows));
    span.argStr("variant",
                variantName({KernelTier::Optimized, kt.level}));
    // Per-thread scratch (see sddmmInto): keeps the fused hot path
    // allocation-free after the first call on each thread. The
    // panel lambdas must use the hoisted pointer — a thread_local
    // named inside them would resolve to the pool worker's own
    // (empty) instance.
    static thread_local std::vector<float> values;
    sddmmInto(q, k, layout, scale, values);
    float *const vals = values.data();

    const size_t macs = layout.colIdx->size() * q.cols();
    counters_[kSoftmaxOpt].fetch_add(1, std::memory_order_relaxed);
    noteIsaLaunch(kt.level);
    forPanels(layout.rows, macs, [&](size_t r0, size_t r1) {
        kt.softmaxCsrPanel(*layout.rowPtr, vals, r0, r1);
    });

    counters_[kSpmmOpt].fetch_add(1, std::memory_order_relaxed);
    noteIsaLaunch(kt.level);
    out.resize(layout.rows, v.cols());
    forPanels(layout.rows, macs, [&](size_t r0, size_t r1) {
        kt.spmmPanel(*layout.rowPtr, *layout.colIdx, vals, v, out, r0,
                     r1);
    });
}

std::span<const DispatchStatsField>
dispatchStatsFields()
{
    static constexpr DispatchStatsField kFields[] = {
        {"gemm_ref", &DispatchStats::gemmReference},
        {"gemm_opt", &DispatchStats::gemmOptimized},
        {"sddmm_ref", &DispatchStats::sddmmReference},
        {"sddmm_csr", &DispatchStats::sddmmCsr},
        {"sddmm_csc", &DispatchStats::sddmmCsc},
        {"softmax_ref", &DispatchStats::softmaxReference},
        {"softmax_opt", &DispatchStats::softmaxOptimized},
        {"spmm_ref", &DispatchStats::spmmReference},
        {"spmm_opt", &DispatchStats::spmmOptimized},
        {"parallel", &DispatchStats::parallelLaunches},
        {"isa_scalar", &DispatchStats::isaScalar},
        {"isa_avx2", &DispatchStats::isaAvx2},
        {"isa_avx512", &DispatchStats::isaAvx512},
    };
    static_assert(sizeof(DispatchStats) ==
                      std::size(kFields) * sizeof(uint64_t),
                  "new DispatchStats counter: add it to this table");
    return kFields;
}

DispatchStats
operator-(const DispatchStats &a, const DispatchStats &b)
{
    DispatchStats d;
    for (const DispatchStatsField &f : dispatchStatsFields())
        d.*f.member = a.*f.member - b.*f.member;
    return d;
}

DispatchStats
KernelEngine::stats() const
{
    // dispatchStatsFields() declaration order matches the Counter
    // enum (the static_assert there keeps both honest on growth).
    DispatchStats st;
    size_t i = 0;
    for (const DispatchStatsField &f : dispatchStatsFields())
        st.*f.member = counters_[i++].load(std::memory_order_relaxed);
    return st;
}

const KernelEngine &
KernelEngine::shared()
{
    static KernelEngine engine{EngineConfig{}, &ThreadPool::shared()};
    return engine;
}

} // namespace vitcod::linalg::engine
