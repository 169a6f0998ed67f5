/**
 * @file
 * Strong-ish unit aliases shared by the simulator and accelerator
 * models. Kept as plain integral/floating aliases (not wrapper types)
 * for arithmetic convenience; names document intent at interfaces.
 */

#ifndef VITCOD_COMMON_UNITS_H
#define VITCOD_COMMON_UNITS_H

#include <cstdint>

namespace vitcod {

/** Clock cycles of whichever clock domain the context names. */
using Cycles = uint64_t;

/** Byte counts (traffic, capacities). */
using Bytes = uint64_t;

/** Multiply-accumulate operation counts. */
using MacOps = uint64_t;

/** Floating-point operation counts (2 per MAC by convention). */
using Flops = double;

/** Energy in picojoules. */
using PicoJoules = double;

/** Seconds, for cross-clock-domain comparisons. */
using Seconds = double;

namespace sim {
/** Simulation time in accelerator core clock cycles. */
using Tick = uint64_t;
} // namespace sim

/** Convert cycles at @p freq_ghz to seconds. */
constexpr Seconds
cyclesToSeconds(Cycles cycles, double freq_ghz)
{
    return static_cast<double>(cycles) / (freq_ghz * 1e9);
}

/** Convert seconds to cycles at @p freq_ghz (rounded up). */
constexpr Cycles
secondsToCycles(Seconds s, double freq_ghz)
{
    const double c = s * freq_ghz * 1e9;
    const auto whole = static_cast<Cycles>(c);
    return (static_cast<double>(whole) < c) ? whole + 1 : whole;
}

/** Integer ceiling division for tiling computations. */
constexpr uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/** Round @p a up to the next multiple of @p b. */
constexpr uint64_t
roundUp(uint64_t a, uint64_t b)
{
    return ceilDiv(a, b) * b;
}

constexpr Bytes operator""_KiB(unsigned long long v) { return v << 10; }
constexpr Bytes operator""_MiB(unsigned long long v) { return v << 20; }
constexpr Bytes operator""_GiB(unsigned long long v) { return v << 30; }

} // namespace vitcod

#endif // VITCOD_COMMON_UNITS_H
