/**
 * @file
 * KernelEngine: the dispatch layer between callers (model executor,
 * serving backends, benches) and kernel implementations. It has two
 * entry points, one GEMM (gemmInto) and one fused sparse attention
 * (sparseAttentionInto: SDDMM -> softmax -> SpMM over a prebuilt
 * MaskLayout). Dispatch is two-level (see variant.h):
 *
 *  - **Tier** — per call it chooses the scalar golden kernels
 *    (src/linalg/{kernels,sparse_kernels}) for tiny shapes or when
 *    pinned to KernelTier::Reference (the oracle stays the oracle),
 *    or the optimized panels: register-blocked GEMM, row-stationary
 *    CSR SDDMM, or the K-stationary CSC walk when the layout carries
 *    one (buildMaskLayout, above kCscSparsityThreshold — mirroring
 *    the accelerator's denser / sparser split), and a ThreadPool
 *    parallel-for over row panels when the work amortizes the fork.
 *  - **ISA** — the optimized panels themselves are dispatched through
 *    a per-ISA kernel table (isa/isa.h) resolved once at engine
 *    construction: EngineConfig::isa, else `VITCOD_ISA`, else the
 *    highest level CPUID proves the host supports.
 *
 * Dispatch decisions are counted (DispatchStats, including which ISA
 * ran) so tests and benches can assert which path actually executed.
 * Engines are safe to share across threads: all methods are const
 * apart from the atomic counters.
 */

#ifndef VITCOD_LINALG_ENGINE_ENGINE_H
#define VITCOD_LINALG_ENGINE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/engine/isa/isa.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/engine/variant.h"
#include "linalg/matrix.h"
#include "sparse/formats.h"

namespace vitcod::linalg::engine {

/**
 * Tuning knobs; defaults fit the 196x196 DeiT attention shapes.
 * Every member has a default initializer, so a designated
 * initializer may omit any of them without -Wmissing-field-initializers.
 */
struct EngineConfig
{
    /**
     * Algorithm tier pin. Unset = Auto: per call, shapes below 2048
     * MACs run the scalar reference, everything else the optimized
     * panels.
     */
    std::optional<KernelTier> tier{};

    /**
     * ISA pin for the optimized panels. Unset defers to the
     * `VITCOD_ISA` environment variable, then CPUID auto-detection.
     * A pinned level the host cannot run clamps down (see
     * isa::resolveIsa); KernelEngine::variant() reports what
     * actually resolved.
     */
    std::optional<IsaLevel> isa{};

    /** Rows per parallel panel. */
    size_t rowPanel = 16;

    /** Auto mode: below this many MACs a single thread runs. */
    size_t minParallelMacs = 1u << 16;
};

/**
 * Mask sparsity above which a MaskLayout carries the K-stationary
 * CSC traversal for the SDDMM (the sparser-engine order).
 */
inline constexpr double kCscSparsityThreshold = 0.95;

/** Cumulative dispatch counters (one engine instance). */
struct DispatchStats
{
    uint64_t gemmReference = 0;
    uint64_t gemmOptimized = 0;
    uint64_t sddmmReference = 0;
    uint64_t sddmmCsr = 0;
    uint64_t sddmmCsc = 0;
    uint64_t softmaxReference = 0;
    uint64_t softmaxOptimized = 0;
    uint64_t spmmReference = 0;
    uint64_t spmmOptimized = 0;
    uint64_t parallelLaunches = 0; //!< calls that fanned out to the pool

    /** @name Optimized kernel launches by executing ISA
     *  (declaration order matches IsaLevel's enumerator order)
     *  @{ */
    uint64_t isaScalar = 0;
    uint64_t isaAvx2 = 0;
    uint64_t isaAvx512 = 0;
    /** @} */

    bool operator==(const DispatchStats &) const = default;
};

/** One DispatchStats counter: serialization name + member pointer. */
struct DispatchStatsField
{
    const char *name;
    uint64_t DispatchStats::*member;
};

/**
 * Every DispatchStats counter, in declaration order. Arithmetic,
 * serializers and comparators iterate this single table so a newly
 * added counter cannot be silently dropped by one of them.
 */
std::span<const DispatchStatsField> dispatchStatsFields();

/**
 * Counter-wise difference (a - b): the dispatch activity between two
 * stats() snapshots of the same engine. @pre a >= b counter-wise.
 */
DispatchStats operator-(const DispatchStats &a, const DispatchStats &b);

/**
 * Borrowed view of a prebuilt compressed mask layout (a MaskLayout
 * plus its shape) — what the attention kernels execute from, so the
 * execution path never scans a mask. The referenced arrays must
 * outlive the call and describe the same mask the caller passes
 * alongside.
 */
struct MaskLayoutView
{
    size_t rows = 0;
    size_t cols = 0;
    const std::vector<uint32_t> *rowPtr = nullptr; //!< CSR, rows+1
    const std::vector<uint32_t> *colIdx = nullptr;
    const std::vector<uint32_t> *colPtr = nullptr; //!< useCsc only
    const std::vector<uint32_t> *rowIdx = nullptr;
    bool useCsc = false; //!< K-stationary CSC walk for the SDDMM
};

/**
 * Compressed visit-order layout of one attention mask: CSR always
 * (the softmax/SpMM order), CSC additionally when the mask is sparse
 * enough for the K-stationary sparser-engine walk. ViTCoD masks are
 * fixed per (layer, head), so this is built once, offline — the
 * Schedule IR stores one per head (core::schedule::HeadLayout).
 */
struct MaskLayout
{
    std::vector<uint32_t> rowPtr, colIdx; //!< CSR
    std::vector<uint32_t> colPtr, rowIdx; //!< CSC (useCsc only)
    bool useCsc = false;

    /** Borrowed view of this layout for a @p rows x @p cols mask. */
    MaskLayoutView view(size_t rows, size_t cols) const
    {
        return {rows, cols, &rowPtr, &colIdx, &colPtr, &rowIdx, useCsc};
    }

    bool operator==(const MaskLayout &) const = default;
};

/**
 * The one mask -> layout compression: one O(rows*cols) mask scan to
 * CSR, plus the O(nnz) CSC transpose exactly when nnz <
 * (1 - @p cscSparsityThreshold) * rows * cols. Every production
 * caller takes the default; tests pass 0 / 2 to force either walk.
 */
MaskLayout
buildMaskLayout(const sparse::BitMask &mask,
                double cscSparsityThreshold = kCscSparsityThreshold);

/** Shape/sparsity/ISA-dispatching kernel executor. */
class KernelEngine
{
  public:
    /**
     * @param pool Parallel-for provider; nullptr runs single-threaded.
     *        Not owned; must outlive the engine.
     */
    explicit KernelEngine(EngineConfig cfg = {},
                          ThreadPool *pool = nullptr);

    KernelEngine(const KernelEngine &) = delete;
    KernelEngine &operator=(const KernelEngine &) = delete;

    const EngineConfig &config() const { return cfg_; }

    /**
     * The variant optimized-eligible dispatches execute with. A
     * Reference-pinned engine reports {Reference, Scalar} (the
     * oracle is host-independent by construction); otherwise the
     * tier is Optimized — what every hot shape runs — and the ISA is
     * the resolved level.
     */
    KernelVariant variant() const;

    /** The resolved ISA level of the optimized panels. */
    IsaLevel isaLevel() const;

    /**
     * C = ep(A * B) into a caller-owned buffer: @p c is reshaped (its
     * capacity is reused, so steady-state callers never allocate —
     * the ModelExecutor's BufferArena path). Epilogue::Gelu fuses
     * the activation into the optimized panels' store; the
     * Reference tier runs linalg::gemmInto then linalg::geluInPlace.
     */
    void gemmInto(const Matrix &a, const Matrix &b, Matrix &c,
                  Epilogue ep = Epilogue::None) const;

    /**
     * Fused sparse attention into a caller-owned output buffer:
     * spmm(softmax(sddmm(q,k,mask))) over a prebuilt layout (the
     * Schedule IR's visit order) without materializing intermediate
     * Csr objects — values flow through SDDMM -> softmax -> SpMM in
     * place, and no mask is scanned. @p mask must be the mask
     * @p layout was compiled from; it is consulted only by the
     * reference dispatch (tiny shapes / KernelTier::Reference),
     * which still materializes its Csr intermediates.
     */
    void sparseAttentionInto(const Matrix &q, const Matrix &k,
                             const Matrix &v,
                             const sparse::BitMask &mask,
                             const MaskLayoutView &layout, float scale,
                             Matrix &out) const;

    /** @name Allocating conveniences over the *Into primaries
     *  @{ */

    /** C = A * B. */
    Matrix gemm(const Matrix &a, const Matrix &b) const
    {
        Matrix c;
        gemmInto(a, b, c);
        return c;
    }

    /**
     * Fused sparse attention returning a fresh output matrix, over a
     * layout built for this call (one mask scan per call): for
     * callers off the request path, which hold no prebuilt layout.
     */
    Matrix sparseAttention(const Matrix &q, const Matrix &k,
                           const Matrix &v, const sparse::BitMask &mask,
                           float scale = 1.0f) const
    {
        const MaskLayout layout = buildMaskLayout(mask);
        Matrix out;
        sparseAttentionInto(q, k, v, mask,
                            layout.view(mask.rows(), mask.cols()), scale,
                            out);
        return out;
    }

    /** @} */

    /** Snapshot of the dispatch counters. */
    DispatchStats stats() const;

    /**
     * Process-wide default engine: Auto tier, env/CPUID-resolved
     * ISA, over ThreadPool::shared(). What reference_block and the
     * ModelExecutor use unless handed a specific engine.
     */
    static const KernelEngine &shared();

  private:
    bool useOptimized(size_t macs) const;
    bool useParallel(size_t rows, size_t macs) const;
    void forPanels(size_t rows, size_t macs,
                   const std::function<void(size_t, size_t)> &body) const;

    /** Count one optimized kernel launch at @p level. */
    void noteIsaLaunch(IsaLevel level) const;

    /** kernels() + noteIsaLaunch() in one step. */
    const isa::IsaKernelTable &kernelsForLaunch() const;

    /** Optimized SDDMM core over a pre-built layout. */
    void sddmmInto(const Matrix &q, const Matrix &k,
                   const MaskLayoutView &layout, float scale,
                   std::vector<float> &values) const;

    EngineConfig cfg_;
    ThreadPool *pool_;

    /** Resolved per-ISA panel table (static lifetime). */
    const isa::IsaKernelTable *kernels_;

    // Indexed by the private Counter enum in engine.cpp.
    mutable std::atomic<uint64_t> counters_[13];
};

} // namespace vitcod::linalg::engine

#endif // VITCOD_LINALG_ENGINE_ENGINE_H
