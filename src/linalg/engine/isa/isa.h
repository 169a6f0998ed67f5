/**
 * @file
 * Runtime ISA registry of the kernel engine: CPUID feature
 * detection, the (pure, mockable) ISA resolution policy, and the
 * per-ISA kernel tables the KernelEngine dispatches through.
 *
 * Each supported instruction set lives in its own translation unit
 * under src/linalg/engine/isa/ compiled with exactly the flags it
 * needs (`-mavx2 -mfma`, `-mavx512f`, ...), and exports one
 * IsaKernelTable of five panel entry points — GEMM, CSR and CSC
 * SDDMM, softmax, SpMM — with signatures identical to the scalar
 * bodies in kernels_opt.h. The rest of the binary is
 * compiled for the baseline target, so a build carrying AVX-512
 * kernels still *runs* everywhere — vector instructions execute only
 * after hostCpuFeatures() proves the CPU has them.
 *
 * Resolution policy (resolveIsa) is a pure function of (forced
 * level, CPU features, env string) so tests exercise every
 * precedence and clamping case without touching real CPUID or the
 * process environment.
 */

#ifndef VITCOD_LINALG_ENGINE_ISA_ISA_H
#define VITCOD_LINALG_ENGINE_ISA_ISA_H

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/engine/kernels_opt.h"
#include "linalg/engine/variant.h"
#include "linalg/matrix.h"
#include "sparse/formats.h"

namespace vitcod::linalg::engine::isa {

/** Host capabilities relevant to kernel selection (mockable). */
struct CpuFeatures
{
    bool avx2 = false;    //!< AVX2 and FMA
    bool avx512f = false; //!< AVX-512 Foundation

    bool operator==(const CpuFeatures &) const = default;
};

/** CPUID probe of the running host (no vector levels off x86). */
CpuFeatures hostCpuFeatures();

/** Whether @p f can execute kernels at @p level. Scalar: always. */
bool cpuSupports(const CpuFeatures &f, IsaLevel level);

/**
 * Whether kernels for @p level were compiled into this binary.
 * Scalar is always present; vector levels depend on the build
 * (compiler flag support, x86 target).
 */
bool isaCompiled(IsaLevel level);

/**
 * Every compiled ISA level, highest preference first (Scalar is
 * always last). What the differential test suite parameterizes
 * over; levels the host cannot run are skipped with a notice.
 */
std::span<const IsaLevel> compiledIsaLevels();

/**
 * Resolve the ISA level an engine should dispatch to.
 *
 * Precedence: @p forced (EngineConfig::isa) wins over
 * @p env (`VITCOD_ISA`, may be nullptr / empty / "auto" for "no
 * override"), which wins over auto-detection (the highest compiled
 * level @p f supports). A requested level that is not compiled or
 * not supported by @p f clamps down to the best available level at
 * or below it, warning once per process per requested level; an
 * unparsable env string warns and is ignored.
 */
IsaLevel resolveIsa(std::optional<IsaLevel> forced,
                    const CpuFeatures &f, const char *env);

/**
 * Entry points of one ISA's optimized panels. Signatures mirror
 * kernels_opt.h — every function works on a half-open row (or
 * column) range and writes only its own output slice, which keeps
 * ThreadPool panel fan-out bitwise deterministic per variant.
 */
struct IsaKernelTable
{
    IsaLevel level = IsaLevel::Scalar;

    void (*gemmPanel)(const Matrix &a, const Matrix &b, Matrix &c,
                      size_t r0, size_t r1, Epilogue ep) = nullptr;
    void (*sddmmCsrPanel)(const Matrix &q, const Matrix &k,
                          const std::vector<uint32_t> &row_ptr,
                          const std::vector<uint32_t> &col_idx,
                          float *values, size_t r0, size_t r1,
                          float scale) = nullptr;
    void (*sddmmCscPanel)(const Matrix &q, const Matrix &k,
                          const std::vector<uint32_t> &col_ptr,
                          const std::vector<uint32_t> &row_idx,
                          float *values, size_t c0, size_t c1,
                          float scale) = nullptr;
    void (*softmaxCsrPanel)(const std::vector<uint32_t> &row_ptr,
                            float *values, size_t r0,
                            size_t r1) = nullptr;
    void (*spmmPanel)(const std::vector<uint32_t> &row_ptr,
                      const std::vector<uint32_t> &col_idx,
                      const float *values, const Matrix &v, Matrix &out,
                      size_t r0, size_t r1) = nullptr;
};

/**
 * Kernel table for @p level, or nullptr when that level was not
 * compiled into this binary. The returned table has every entry
 * point non-null and static lifetime.
 */
const IsaKernelTable *isaKernelTable(IsaLevel level);

} // namespace vitcod::linalg::engine::isa

#endif // VITCOD_LINALG_ENGINE_ISA_ISA_H
