/**
 * @file
 * Kernel-engine throughput bench and the source of the perf-
 * regression CI's JSON rows. For each (n, d, sparsity) attention
 * shape it times
 *
 *  - the scalar golden pipeline
 *    spmm(maskedSoftmaxRows(sddmm(q,k,mask))) as the reference,
 *  - the KernelEngine single-threaded once per compiled ISA level
 *    (scalar / AVX2 / AVX-512, each pinned via
 *    EngineConfig::isa) — one JSON row per (kernel, ISA),
 *  - the KernelEngine over a ThreadPool (--threads N, default 4)
 *    at the auto-resolved ISA,
 *
 * plus the dense QKV-projection GEMM. Each per-ISA row carries two
 * ratios: "speedup" (scalar golden reference / this ISA) and
 * "isa_speedup" (optimized-scalar tier / this ISA — the pure
 * vectorization win). A summary row with isa="best" names the
 * fastest level in "best_isa". Compiled levels the host cannot run
 * emit a row with "skipped": 1 so the CI gate can skip-with-notice
 * instead of failing on a missing row. `--isa=LEVEL` restricts the
 * sweep to one level.
 *
 * CI compares the speedup fields against
 * bench/baselines/engine_baseline.json — speedups are ratios of two
 * timings from the same run, so the gate is robust to runner speed.
 *
 * The headline row the acceptance gate watches: sparse_attn at
 * n=196 d=64 sparsity=0.90 threads=1 isa=avx2 must hold
 * isa_speedup >= 3x over the optimized scalar tier.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "linalg/engine/engine.h"
#include "linalg/engine/isa/isa.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/kernels.h"
#include "linalg/sparse_kernels.h"
#include "sparse/bitmask.h"

using namespace vitcod;
using linalg::engine::IsaLevel;
using linalg::engine::KernelEngine;
using linalg::engine::KernelTier;
namespace eisa = linalg::engine::isa;

namespace {

/**
 * Deterministic polarized attention mask at an exact nnz budget:
 * a handful of dense "global token" columns, a diagonal band, then
 * seeded random scatter up to the target — the workload shape
 * split-and-conquer produces, without the pipeline's cost.
 */
sparse::BitMask
polarizedMask(size_t n, double sparsity, Rng &rng)
{
    sparse::BitMask mask(n, n);
    const auto target =
        static_cast<size_t>(static_cast<double>(n * n) *
                            (1.0 - sparsity));
    const size_t global_cols = std::max<size_t>(1, n / 32);
    size_t nnz = 0;
    for (size_t r = 0; r < n && nnz < target; ++r) {
        for (size_t c = 0; c < global_cols && nnz < target; ++c) {
            if (!mask.get(r, c)) {
                mask.set(r, c, true);
                ++nnz;
            }
        }
        if (nnz < target && !mask.get(r, r)) {
            mask.set(r, r, true);
            ++nnz;
        }
    }
    while (nnz < target) {
        const auto r = static_cast<size_t>(rng.uniformInt(n));
        const auto c = static_cast<size_t>(rng.uniformInt(n));
        if (!mask.get(r, c)) {
            mask.set(r, c, true);
            ++nnz;
        }
    }
    return mask;
}

/** Best-of-R wall time of @p fn in milliseconds. */
template <typename Fn>
double
bestMs(size_t reps, Fn &&fn)
{
    double best = 1e300;
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(t1 - t0)
                      .count());
    }
    return best;
}

double
sink(const linalg::Matrix &m)
{
    // Cheap data dependence so the optimizer cannot drop the run.
    return static_cast<double>(m(0, 0)) + m(m.rows() - 1, m.cols() - 1);
}

/** Per-ISA launch counter of @p st for @p level. */
uint64_t
isaLaunches(const linalg::engine::DispatchStats &st, IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar: return st.isaScalar;
    case IsaLevel::Avx2: return st.isaAvx2;
    case IsaLevel::Avx512: return st.isaAvx512;
    }
    return 0;
}

/** One single-threaded engine pinned to a host-supported level. */
struct IsaEngine
{
    IsaLevel level;
    const KernelEngine *engine; // owned by main (or scalar1)
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::CliOptions opts = bench::parseCli(argc, argv);
    const size_t reps = opts.smoke ? 3 : 20;
    const size_t mt_threads = opts.threads ? opts.threads : 4;

    if (!opts.json)
        bench::printHeader("kernel engine throughput",
                           "engine QA (no paper figure)");

    // ISA sweep: every compiled level, or just --isa=LEVEL.
    std::optional<IsaLevel> only;
    if (!opts.isa.empty() && opts.isa != "auto") {
        only = linalg::engine::parseIsaName(opts.isa);
        if (!only)
            fatal("--isa: unknown ISA level '", opts.isa, "'");
        if (!eisa::isaCompiled(*only))
            fatal("--isa ", opts.isa,
                  ": level not compiled into this binary");
    }
    // Optimized-scalar tier: denominator of "isa_speedup" (always
    // measured even under --isa so the ratio stays well-defined).
    const KernelEngine scalar1({.tier = KernelTier::Optimized,
                                .isa = IsaLevel::Scalar});

    const eisa::CpuFeatures host = eisa::hostCpuFeatures();
    std::vector<std::unique_ptr<KernelEngine>> owned;
    std::vector<IsaEngine> engines;  // host-supported, pinned 1T
    std::vector<IsaLevel> skipped;   // compiled but unsupported here
    for (IsaLevel level : eisa::compiledIsaLevels()) {
        if (only && *only != level)
            continue;
        if (!eisa::cpuSupports(host, level)) {
            skipped.push_back(level);
        } else if (level == IsaLevel::Scalar) {
            engines.push_back({level, &scalar1});
        } else {
            owned.push_back(std::make_unique<KernelEngine>(
                linalg::engine::EngineConfig{
                    .tier = KernelTier::Optimized, .isa = level}));
            engines.push_back({level, owned.back().get()});
        }
    }

    linalg::engine::ThreadPool pool(mt_threads);
    const KernelEngine optN({.tier = KernelTier::Optimized}, &pool);

    const size_t n = 196; // DeiT-Base attention shape
    const size_t d = 64;
    double guard = 0.0;

    /**
     * Emit the full row set for one kernel shape: a row per ISA
     * level, skip rows, the isa="best" summary row and the
     * multithreaded auto-ISA row. @p run must invoke the kernel
     * under test on the engine it is given.
     */
    const auto emitGroup = [&](const char *kernel, size_t gn,
                               size_t gd, double sp, uint64_t nnz,
                               bool has_sp, double flops,
                               double ref_ms, const auto &run) {
        const auto base = [&](const char *isa_name, int threads) {
            bench::JsonRow row;
            row.set("bench", "engine")
                .set("kernel", kernel)
                .set("n", static_cast<uint64_t>(gn))
                .set("d", static_cast<uint64_t>(gd));
            if (has_sp)
                row.set("sparsity", sp)
                    .set("nnz", nnz);
            row.set("threads", threads).set("isa", isa_name);
            return row;
        };

        const double scalar_ms =
            bestMs(reps, [&] { guard += run(scalar1); });
        double best_ms = 1e300;
        IsaLevel best = IsaLevel::Scalar;
        for (const IsaEngine &ie : engines) {
            const double ms = ie.level == IsaLevel::Scalar
                                  ? scalar_ms
                                  : bestMs(reps, [&] {
                                        guard += run(*ie.engine);
                                    });
            if (ms < best_ms) {
                best_ms = ms;
                best = ie.level;
            }
            base(linalg::engine::isaName(ie.level), 1)
                .set("ref_ms", ref_ms)
                .set("opt_ms", ms)
                .set("speedup", ref_ms / ms)
                .set("isa_speedup", scalar_ms / ms)
                .set("opt_gflops", flops / (ms * 1e6))
                .print();
        }
        for (IsaLevel level : skipped)
            base(linalg::engine::isaName(level), 1)
                .set("skipped", 1)
                .set("reason", std::string("host lacks ") +
                                   linalg::engine::isaName(level))
                .print();
        base("best", 1)
            .set("best_isa", linalg::engine::isaName(best))
            .set("ref_ms", ref_ms)
            .set("opt_ms", best_ms)
            .set("speedup", ref_ms / best_ms)
            .set("isa_speedup", scalar_ms / best_ms)
            .set("opt_gflops", flops / (best_ms * 1e6))
            .print();

        const double mt_ms =
            bestMs(reps, [&] { guard += run(optN); });
        base("auto", static_cast<int>(mt_threads))
            .set("isa_resolved",
                 linalg::engine::isaName(optN.isaLevel()))
            .set("ref_ms", ref_ms)
            .set("opt_ms", mt_ms)
            .set("speedup", ref_ms / mt_ms)
            .set("scaling_vs_1t", best_ms / mt_ms)
            .set("opt_gflops", flops / (mt_ms * 1e6))
            .print();
    };

    std::vector<double> sparsities = {0.5, 0.9, 0.95, 0.98};
    if (opts.smoke)
        sparsities = {0.9};

    for (double sp : sparsities) {
        Rng rng(opts.seed);
        const auto q = linalg::Matrix::randomNormal(n, d, rng);
        const auto k = linalg::Matrix::randomNormal(n, d, rng);
        const auto v = linalg::Matrix::randomNormal(n, d, rng);
        const auto mask = polarizedMask(n, sp, rng);
        const float scale = 0.125f;
        const double flops =
            static_cast<double>(mask.nnz()) * d * 2.0 * 2.0;

        const double ref_ms = bestMs(reps, [&] {
            guard += sink(linalg::spmm(
                linalg::maskedSoftmaxRows(
                    linalg::sddmm(q, k, mask, scale)),
                v));
        });
        // Prebuilt layout + preallocated output, exactly like the
        // ModelExecutor request path: the rows measure the kernels,
        // not the allocator or a per-call mask scan.
        const linalg::engine::MaskLayout layout =
            linalg::engine::buildMaskLayout(mask);
        linalg::Matrix attn_out;
        emitGroup("sparse_attn", n, d, sp, mask.nnz(), true, flops,
                  ref_ms, [&](const KernelEngine &eng) {
                      eng.sparseAttentionInto(q, k, v, mask,
                                              layout.view(n, n), scale,
                                              attn_out);
                      return sink(attn_out);
                  });
    }

    // Dense GEMM: the QKV projection shape (n x 384 times 384 x 384).
    {
        Rng rng(opts.seed + 1);
        const size_t dm = 384;
        const auto x = linalg::Matrix::randomNormal(n, dm, rng);
        const auto w = linalg::Matrix::randomNormal(dm, dm, rng);
        const double flops = 2.0 * static_cast<double>(n) * dm * dm;

        const double ref_ms =
            bestMs(reps, [&] { guard += sink(linalg::gemm(x, w)); });
        linalg::Matrix gemm_out;
        emitGroup("gemm", n, dm, 0.0, 0, false, flops, ref_ms,
                  [&](const KernelEngine &eng) {
                      eng.gemmInto(x, w, gemm_out);
                      return sink(gemm_out);
                  });
    }

    if (!opts.json)
        std::printf("# guard %.3g (ignore; defeats dead-code elim)\n",
                    guard);

    // Engine-side sanity: every pinned engine must have dispatched
    // its optimized kernels on exactly the ISA it was pinned to.
    for (const IsaEngine &ie : engines) {
        const auto st = ie.engine->stats();
        if (st.sddmmCsr + st.sddmmCsc == 0 || st.spmmOptimized == 0)
            fatal("bench_engine: optimized path never dispatched on ",
                  linalg::engine::isaName(ie.level));
        if (isaLaunches(st, ie.level) == 0)
            fatal("bench_engine: engine pinned to ",
                  linalg::engine::isaName(ie.level),
                  " never launched kernels at that level");
    }
    return 0;
}
