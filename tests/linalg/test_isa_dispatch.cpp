/**
 * @file
 * Tests of the runtime ISA dispatch layer (linalg/engine/isa):
 * resolveIsa precedence (config > VITCOD_ISA env > CPUID
 * auto-detect), downward clamping on unsupported/uncompiled levels,
 * name parsing, the kernel-table registry, and the engine-facing
 * behavior (construction-time env pickup, Auto picking the host's
 * best level, a config pin above the host clamping down). resolveIsa is a pure function of
 * (forced, CpuFeatures, env), so every precedence and clamping case
 * runs with mocked CPU features and env strings — no real CPUID, no
 * setenv.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.h"
#include "linalg/engine/engine.h"
#include "linalg/engine/isa/isa.h"

namespace vitcod::linalg::engine::isa {
namespace {

// Mocked hosts. Compiled-level availability still comes from the
// real binary (isaCompiled), so expectations about vector levels are
// gated on it.
constexpr CpuFeatures kNoSimd{};
constexpr CpuFeatures kAvx2Only{.avx2 = true};
constexpr CpuFeatures kAvx512Host{.avx2 = true, .avx512f = true};

TEST(IsaNames, ParseAcceptsKnownNamesCaseInsensitive)
{
    EXPECT_EQ(parseIsaName("scalar"), IsaLevel::Scalar);
    EXPECT_EQ(parseIsaName("avx2"), IsaLevel::Avx2);
    EXPECT_EQ(parseIsaName("avx512"), IsaLevel::Avx512);
    EXPECT_EQ(parseIsaName("AVX2"), IsaLevel::Avx2);
    EXPECT_EQ(parseIsaName("Scalar"), IsaLevel::Scalar);

    EXPECT_EQ(parseIsaName("auto"), std::nullopt);
    EXPECT_EQ(parseIsaName(""), std::nullopt);
    EXPECT_EQ(parseIsaName("sse9"), std::nullopt);
}

TEST(IsaNames, RoundTripThroughIsaName)
{
    for (IsaLevel l : {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512})
        EXPECT_EQ(parseIsaName(isaName(l)), l);
}

TEST(IsaNames, VariantNamesAreStable)
{
    EXPECT_STREQ(variantName({KernelTier::Reference, IsaLevel::Scalar}),
                 "reference/scalar");
    EXPECT_STREQ(variantName({KernelTier::Optimized, IsaLevel::Avx2}),
                 "optimized/avx2");
    EXPECT_STREQ(
        variantName({KernelTier::Optimized, IsaLevel::Avx512}),
        "optimized/avx512");
}

TEST(CpuSupport, ScalarRunsEverywhere)
{
    for (const auto &f : {kNoSimd, kAvx2Only, kAvx512Host})
        EXPECT_TRUE(cpuSupports(f, IsaLevel::Scalar));
}

TEST(CpuSupport, VectorLevelsRequireTheirFeatures)
{
    EXPECT_FALSE(cpuSupports(kNoSimd, IsaLevel::Avx2));
    EXPECT_TRUE(cpuSupports(kAvx2Only, IsaLevel::Avx2));
    // AVX-512 kernels also use 256-bit double lanes: require AVX2.
    EXPECT_FALSE(cpuSupports(kAvx2Only, IsaLevel::Avx512));
    EXPECT_TRUE(cpuSupports(kAvx512Host, IsaLevel::Avx512));
}

TEST(Registry, ScalarTableIsAlwaysCompiledAndComplete)
{
    ASSERT_TRUE(isaCompiled(IsaLevel::Scalar));
    const IsaKernelTable *t = isaKernelTable(IsaLevel::Scalar);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->level, IsaLevel::Scalar);
    EXPECT_NE(t->gemmPanel, nullptr);
    EXPECT_NE(t->sddmmCsrPanel, nullptr);
    EXPECT_NE(t->sddmmCscPanel, nullptr);
    EXPECT_NE(t->softmaxCsrPanel, nullptr);
    EXPECT_NE(t->spmmPanel, nullptr);
}

TEST(Registry, CompiledLevelsHaveCompleteTablesUncompiledHaveNone)
{
    for (IsaLevel l : {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512}) {
        const IsaKernelTable *t = isaKernelTable(l);
        if (isaCompiled(l)) {
            ASSERT_NE(t, nullptr) << isaName(l);
            EXPECT_EQ(t->level, l);
            EXPECT_NE(t->sddmmCsrPanel, nullptr) << isaName(l);
        } else {
            EXPECT_EQ(t, nullptr) << isaName(l);
        }
    }
}

TEST(Registry, CompiledLevelListIsHighestFirstAndEndsWithScalar)
{
    const auto levels = compiledIsaLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.back(), IsaLevel::Scalar);
    for (size_t i = 1; i < levels.size(); ++i)
        EXPECT_GT(levels[i - 1], levels[i]);
}

TEST(ResolveIsa, AutoPicksHighestCompiledSupportedLevel)
{
    // No force, no env: detection over the mocked host, capped by
    // what the binary actually carries.
    const IsaLevel no_simd = resolveIsa(std::nullopt, kNoSimd, nullptr);
    EXPECT_EQ(no_simd, IsaLevel::Scalar);

    const IsaLevel avx2 = resolveIsa(std::nullopt, kAvx2Only, nullptr);
    EXPECT_EQ(avx2, isaCompiled(IsaLevel::Avx2) ? IsaLevel::Avx2
                                                : IsaLevel::Scalar);

    const IsaLevel avx512 =
        resolveIsa(std::nullopt, kAvx512Host, nullptr);
    if (isaCompiled(IsaLevel::Avx512))
        EXPECT_EQ(avx512, IsaLevel::Avx512);
    else
        EXPECT_EQ(avx512, isaCompiled(IsaLevel::Avx2)
                              ? IsaLevel::Avx2
                              : IsaLevel::Scalar);
}

TEST(ResolveIsa, ForcedLevelWinsOverEnvAndDetection)
{
    EXPECT_EQ(resolveIsa(IsaLevel::Scalar, kAvx512Host, "avx2"),
              IsaLevel::Scalar);
    if (isaCompiled(IsaLevel::Avx2))
        EXPECT_EQ(resolveIsa(IsaLevel::Avx2, kAvx512Host, "scalar"),
                  IsaLevel::Avx2);
}

TEST(ResolveIsa, EnvWinsOverDetection)
{
    EXPECT_EQ(resolveIsa(std::nullopt, kAvx512Host, "scalar"),
              IsaLevel::Scalar);
    if (isaCompiled(IsaLevel::Avx2))
        EXPECT_EQ(resolveIsa(std::nullopt, kAvx512Host, "avx2"),
                  IsaLevel::Avx2);
}

TEST(ResolveIsa, EmptyAutoOrBadEnvFallsBackToDetection)
{
    const IsaLevel detected =
        resolveIsa(std::nullopt, kNoSimd, nullptr);
    EXPECT_EQ(resolveIsa(std::nullopt, kNoSimd, ""), detected);
    EXPECT_EQ(resolveIsa(std::nullopt, kNoSimd, "auto"), detected);
    EXPECT_EQ(resolveIsa(std::nullopt, kNoSimd, "not-an-isa"),
              detected);
    // No NEON tier is built: its name is as unknown as any other.
    EXPECT_EQ(resolveIsa(std::nullopt, kNoSimd, "neon"), detected);
}

TEST(ResolveIsa, UnsupportedRequestClampsDownNeverUp)
{
    // AVX-512 requested on an AVX2-only host: the best level at or
    // below the request that the host can run.
    const IsaLevel clamped =
        resolveIsa(IsaLevel::Avx512, kAvx2Only, nullptr);
    EXPECT_EQ(clamped, isaCompiled(IsaLevel::Avx2) ? IsaLevel::Avx2
                                                   : IsaLevel::Scalar);

    // Any vector request on a featureless host lands on Scalar.
    EXPECT_EQ(resolveIsa(IsaLevel::Avx512, kNoSimd, nullptr),
              IsaLevel::Scalar);
    EXPECT_EQ(resolveIsa(IsaLevel::Avx2, kNoSimd, nullptr),
              IsaLevel::Scalar);
}

TEST(ResolveIsa, EnvRequestAboveHostClampsDown)
{
    EXPECT_EQ(resolveIsa(std::nullopt, kNoSimd, "avx512"),
              IsaLevel::Scalar);
}

TEST(IsaEngine, EngineConstructionHonorsVitcodIsaEnv)
{
    // The engine reads VITCOD_ISA at construction; "scalar" is
    // always satisfiable, making this assertion host-independent.
    ASSERT_EQ(setenv("VITCOD_ISA", "scalar", /*overwrite=*/1), 0);
    {
        const KernelEngine eng({.tier = KernelTier::Optimized});
        EXPECT_EQ(eng.isaLevel(), IsaLevel::Scalar);
    }
    // Config pin beats the env.
    if (isaCompiled(IsaLevel::Avx2) &&
        cpuSupports(hostCpuFeatures(), IsaLevel::Avx2)) {
        const KernelEngine pinned({.tier = KernelTier::Optimized,
                                   .isa = IsaLevel::Avx2});
        EXPECT_EQ(pinned.isaLevel(), IsaLevel::Avx2);
    }
    ASSERT_EQ(unsetenv("VITCOD_ISA"), 0);

    const KernelEngine eng({.tier = KernelTier::Optimized});
    EXPECT_EQ(eng.isaLevel(),
              resolveIsa(std::nullopt, hostCpuFeatures(), nullptr));
}

TEST(IsaEngine, AutoEngineRunsTheHostsBestLevel)
{
    const IsaLevel best =
        resolveIsa(std::nullopt, hostCpuFeatures(), nullptr);
    const KernelEngine eng({.tier = KernelTier::Optimized});
    EXPECT_EQ(eng.variant(),
              (KernelVariant{KernelTier::Optimized, best}));

    Rng rng(3);
    const auto a = Matrix::randomNormal(64, 64, rng);
    const auto b = Matrix::randomNormal(64, 64, rng);
    (void)eng.gemm(a, b);
    const DispatchStats st = eng.stats();
    const uint64_t launches = st.isaScalar + st.isaAvx2 + st.isaAvx512;
    EXPECT_EQ(launches, 1u);
    switch (best) {
    case IsaLevel::Scalar: EXPECT_EQ(st.isaScalar, 1u); break;
    case IsaLevel::Avx2: EXPECT_EQ(st.isaAvx2, 1u); break;
    case IsaLevel::Avx512: EXPECT_EQ(st.isaAvx512, 1u); break;
    }
}

TEST(IsaEngine, ConfigPinClampsAtConstruction)
{
    // Scalar is always applicable exactly.
    const KernelEngine scalar(
        {.tier = KernelTier::Optimized, .isa = IsaLevel::Scalar});
    EXPECT_EQ(scalar.isaLevel(), IsaLevel::Scalar);
    // Pinning the host's best level is satisfied exactly.
    const IsaLevel best =
        resolveIsa(std::nullopt, hostCpuFeatures(), nullptr);
    const KernelEngine pinned(
        {.tier = KernelTier::Optimized, .isa = best});
    EXPECT_EQ(pinned.isaLevel(), best);
    // A level the host can't run clamps to something it can.
    const KernelEngine top(
        {.tier = KernelTier::Optimized, .isa = IsaLevel::Avx512});
    EXPECT_TRUE(cpuSupports(hostCpuFeatures(), top.isaLevel()));
    EXPECT_EQ(top.variant().isa, top.isaLevel());
}

} // namespace
} // namespace vitcod::linalg::engine::isa
