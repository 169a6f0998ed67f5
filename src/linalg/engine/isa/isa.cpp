#include "linalg/engine/isa/isa.h"

#include <mutex>

#include "common/logging.h"
#include "linalg/engine/kernels_opt.h"

namespace vitcod::linalg::engine::isa {

// Per-ISA tables live in their own translation units, compiled with
// exactly the target flags they need. CMake defines
// VITCOD_ENGINE_HAVE_* if and only if it adds the matching TU to the
// build, so these externs never dangle.
#if defined(VITCOD_ENGINE_HAVE_AVX2)
const IsaKernelTable &avx2KernelTable();
#endif
#if defined(VITCOD_ENGINE_HAVE_AVX512)
const IsaKernelTable &avx512KernelTable();
#endif

namespace {

/** The scalar tier-baseline table: the kernels_opt.cpp bodies. */
const IsaKernelTable kScalarTable = {
    IsaLevel::Scalar, &gemmPanel,       &sddmmCsrPanel,
    &sddmmCscPanel,   &softmaxCsrPanel, &spmmPanel,
};

} // namespace

CpuFeatures
hostCpuFeatures()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports is gcc/clang CPUID with cached results.
    f.avx2 = __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma");
    f.avx512f = __builtin_cpu_supports("avx512f");
#endif
    return f;
}

bool
cpuSupports(const CpuFeatures &f, IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar: return true;
    case IsaLevel::Avx2: return f.avx2;
    case IsaLevel::Avx512: return f.avx512f && f.avx2;
    }
    return false;
}

const IsaKernelTable *
isaKernelTable(IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar: return &kScalarTable;
    case IsaLevel::Avx2:
#if defined(VITCOD_ENGINE_HAVE_AVX2)
        return &avx2KernelTable();
#else
        return nullptr;
#endif
    case IsaLevel::Avx512:
#if defined(VITCOD_ENGINE_HAVE_AVX512)
        return &avx512KernelTable();
#else
        return nullptr;
#endif
    }
    return nullptr;
}

bool
isaCompiled(IsaLevel level)
{
    return isaKernelTable(level) != nullptr;
}

std::span<const IsaLevel>
compiledIsaLevels()
{
    static const std::vector<IsaLevel> levels = [] {
        std::vector<IsaLevel> v;
        // Highest preference first; Scalar always compiles.
        for (IsaLevel l :
             {IsaLevel::Avx512, IsaLevel::Avx2, IsaLevel::Scalar})
            if (isaCompiled(l))
                v.push_back(l);
        return v;
    }();
    return levels;
}

namespace {

/** Highest compiled level @p f supports (Scalar always qualifies). */
IsaLevel
bestIsa(const CpuFeatures &f)
{
    for (IsaLevel l : compiledIsaLevels())
        if (cpuSupports(f, l))
            return l;
    return IsaLevel::Scalar;
}

/** Clamp @p want down to the best available level at or below it. */
IsaLevel
clampIsa(IsaLevel want, const CpuFeatures &f, const char *origin)
{
    if (isaCompiled(want) && cpuSupports(f, want))
        return want;
    IsaLevel best = IsaLevel::Scalar;
    for (IsaLevel l : compiledIsaLevels())
        if (l <= want && cpuSupports(f, l)) {
            best = l;
            break; // compiledIsaLevels() is highest-first
        }
    // One warning per (requested, got) pair per process: engines are
    // constructed per worker and must not spam the log.
    static std::mutex mu;
    static bool warned[kNumIsaLevels][kNumIsaLevels] = {};
    std::lock_guard<std::mutex> g(mu);
    auto &w = warned[static_cast<size_t>(want)]
                    [static_cast<size_t>(best)];
    if (!w) {
        w = true;
        warn("requested ISA '", isaName(want), "' (", origin,
                ") is ",
                isaCompiled(want) ? "not supported by this CPU"
                                  : "not compiled into this binary",
                "; falling back to '", isaName(best), "'");
    }
    return best;
}

} // namespace

IsaLevel
resolveIsa(std::optional<IsaLevel> forced, const CpuFeatures &f,
           const char *env)
{
    if (forced)
        return clampIsa(*forced, f, "config");
    if (env && *env) {
        const std::string_view sv(env);
        if (sv != "auto") {
            if (const auto parsed = parseIsaName(sv))
                return clampIsa(*parsed, f, "VITCOD_ISA");
            static std::once_flag once;
            std::call_once(once, [&] {
                warn("VITCOD_ISA='", env,
                        "' is not a known ISA (expected scalar|avx2|"
                        "avx512|auto); using auto detection");
            });
        }
    }
    return bestIsa(f);
}

} // namespace vitcod::linalg::engine::isa
