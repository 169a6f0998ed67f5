#include "linalg/engine/variant.h"

#include <cctype>
#include <string>

namespace vitcod::linalg::engine {

const char *
tierName(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Reference: return "reference";
    case KernelTier::Optimized: return "optimized";
    }
    return "?";
}

const char *
isaName(IsaLevel isa)
{
    switch (isa) {
    case IsaLevel::Scalar: return "scalar";
    case IsaLevel::Avx2: return "avx2";
    case IsaLevel::Avx512: return "avx512";
    }
    return "?";
}

const char *
variantName(const KernelVariant &v)
{
    // 2 x kNumIsaLevels static labels so callers (trace spans, log
    // lines) get a stable const char* without interning.
    static const char *const kNames[2][kNumIsaLevels] = {
        {"reference/scalar", "reference/avx2", "reference/avx512"},
        {"optimized/scalar", "optimized/avx2", "optimized/avx512"},
    };
    const auto t = static_cast<size_t>(v.tier);
    const auto i = static_cast<size_t>(v.isa);
    if (t >= 2 || i >= kNumIsaLevels)
        return "?";
    return kNames[t][i];
}

std::optional<IsaLevel>
parseIsaName(std::string_view name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "scalar")
        return IsaLevel::Scalar;
    if (lower == "avx2")
        return IsaLevel::Avx2;
    if (lower == "avx512")
        return IsaLevel::Avx512;
    return std::nullopt;
}

} // namespace vitcod::linalg::engine
