/**
 * @file
 * KernelVariant: the two-level (algorithm tier x ISA level) identity
 * of a kernel implementation the engine can dispatch to.
 *
 *  - **Tier** says *which algorithm* runs: the scalar golden kernels
 *    (src/linalg/{kernels,sparse_kernels} — the differential-test
 *    oracle) or the register-blocked / fused optimized panels.
 *  - **ISA** says *which instruction set* the optimized panels use:
 *    portable scalar code, AVX2+FMA or AVX-512. The reference
 *    tier is always scalar — the oracle must not depend on the host.
 *
 * Variants are resolved once, at engine construction, from three
 * sources, highest precedence first:
 *
 *  1. `EngineConfig::isa` — programmatic force (benches' `--isa=`).
 *  2. `VITCOD_ISA=scalar|avx2|avx512|auto` — environment.
 *  3. CPUID detection — the highest level both compiled into this
 *     binary and supported by the host CPU.
 *
 * A request above what the host supports clamps *down* to the best
 * available level (with a warning), never up: a binary carrying
 * AVX-512 kernels still runs correctly on an AVX2-only machine.
 */

#ifndef VITCOD_LINALG_ENGINE_VARIANT_H
#define VITCOD_LINALG_ENGINE_VARIANT_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace vitcod::linalg::engine {

/** Algorithm tier of a kernel implementation. */
enum class KernelTier : uint8_t
{
    Reference, //!< scalar golden kernels (the oracle)
    Optimized, //!< register-blocked / fused / vectorized panels
};

/**
 * Instruction-set level of the optimized panels, ordered by
 * preference: Auto resolution picks the highest compiled-and-
 * supported value.
 */
enum class IsaLevel : uint8_t
{
    Scalar = 0, //!< portable C++ (compiler-autovectorized baseline)
    Avx2,       //!< 256-bit AVX2 + FMA
    Avx512,     //!< 512-bit AVX-512F
};

/** Number of IsaLevel enumerators (table sizing). */
inline constexpr size_t kNumIsaLevels = 3;

/** One dispatchable implementation identity: tier x ISA. */
struct KernelVariant
{
    KernelTier tier = KernelTier::Optimized;
    IsaLevel isa = IsaLevel::Scalar;

    bool operator==(const KernelVariant &) const = default;
};

/** Stable lowercase name: "reference" / "optimized". */
const char *tierName(KernelTier tier);

/** Stable lowercase name: "scalar" / "avx2" / "avx512". */
const char *isaName(IsaLevel isa);

/** "optimized/avx2"-style label (static storage, no allocation). */
const char *variantName(const KernelVariant &v);

/**
 * Parse an ISA name as accepted by `VITCOD_ISA` / `--isa=`:
 * "scalar", "avx2", "avx512" (case-insensitive). Returns
 * nullopt for anything else — including "auto", which callers treat
 * as "no override" (see resolveIsa()).
 */
std::optional<IsaLevel> parseIsaName(std::string_view name);

} // namespace vitcod::linalg::engine

#endif // VITCOD_LINALG_ENGINE_VARIANT_H
