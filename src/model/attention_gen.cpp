#include "attention_gen.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"

namespace vitcod::model {

AttentionMapGenerator::AttentionMapGenerator(const VitModelConfig &model,
                                             AttentionGenConfig cfg)
    : model_(model), cfg_(cfg), shapes_(attentionShapes(model))
{
    VITCOD_ASSERT(!shapes_.empty(), "model has no attention blocks");
}

size_t
AttentionMapGenerator::tokens(size_t layer) const
{
    VITCOD_ASSERT(layer < shapes_.size(), "layer out of range");
    return shapes_[layer].tokens;
}

double
AttentionMapGenerator::depthFrac(size_t layer) const
{
    if (shapes_.size() <= 1)
        return 0.0;
    return static_cast<double>(layer) /
           static_cast<double>(shapes_.size() - 1);
}

uint64_t
AttentionMapGenerator::streamSeed(size_t layer, size_t head) const
{
    SplitMix64 sm(cfg_.seed);
    uint64_t s = sm.next();
    s ^= (static_cast<uint64_t>(layer) + 1) * 0x9e3779b97f4a7c15ULL;
    s ^= (static_cast<uint64_t>(head) + 1) * 0xc2b2ae3d27d4eb4fULL;
    return SplitMix64(s).next();
}

std::vector<uint32_t>
AttentionMapGenerator::globalTokens(size_t layer, size_t head,
                                    size_t n) const
{
    const double depth = depthFrac(layer);
    const double frac = cfg_.globalFracNear +
                        (cfg_.globalFracFar - cfg_.globalFracNear) * depth;
    const auto target = std::max<size_t>(
        1, static_cast<size_t>(std::lround(frac * static_cast<double>(n))));

    // Half the pool is layer-shared (heads of one layer attend to
    // similar salient patches), the rest is head-specific.
    std::vector<uint32_t> ids;
    std::unordered_set<uint32_t> seen;
    auto push = [&](uint32_t t) {
        if (seen.insert(t).second)
            ids.push_back(t);
    };

    push(0); // CLS / first token is always global

    Rng layer_rng(streamSeed(layer, /*head=*/~0ULL & 0xffff));
    const size_t shared = target / 2;
    while (ids.size() < 1 + shared)
        push(static_cast<uint32_t>(layer_rng.uniformInt(n)));

    Rng head_rng(streamSeed(layer, head));
    while (ids.size() < 1 + target)
        push(static_cast<uint32_t>(head_rng.uniformInt(n)));

    std::sort(ids.begin(), ids.end());
    return ids;
}

linalg::Matrix
AttentionMapGenerator::generate(size_t layer, size_t head) const
{
    VITCOD_ASSERT(layer < shapes_.size(), "layer out of range");
    VITCOD_ASSERT(head < shapes_[layer].heads, "head out of range");
    const size_t n = shapes_[layer].tokens;
    const double depth = depthFrac(layer);

    const double sigma =
        std::max(0.5, (cfg_.sigmaFracNear +
                       (cfg_.sigmaFracFar - cfg_.sigmaFracNear) * depth) *
                          static_cast<double>(n));
    const double g_mass = cfg_.globalMassNear +
                          (cfg_.globalMassFar - cfg_.globalMassNear) *
                              depth;
    const double bg_mass = cfg_.backgroundMass;
    const double local_mass = std::max(0.0, 1.0 - g_mass - bg_mass);

    const std::vector<uint32_t> globals = globalTokens(layer, head, n);
    std::vector<double> g_strength(globals.size());
    Rng rng(streamSeed(layer, head) ^ 0x5afeULL);
    double g_total = 0.0;
    for (size_t i = 0; i < globals.size(); ++i) {
        // CLS column strongest; strengths decay with heavy jitter.
        const double base = (globals[i] == 0) ? 2.0 : 1.0;
        g_strength[i] = base * std::exp(rng.normal(0.0, 0.4));
        g_total += g_strength[i];
    }
    for (auto &s : g_strength)
        s /= g_total;

    std::vector<char> is_global(n, 0);
    std::vector<double> col_gmass(n, 0.0);
    for (size_t i = 0; i < globals.size(); ++i) {
        is_global[globals[i]] = 1;
        col_gmass[globals[i]] = g_strength[i];
    }

    // Component 1: locality kernel exp(-|r - c| / sigma), which
    // depends only on the distance: tabulated once per head.
    std::vector<double> kern(n);
    for (size_t d = 0; d < n; ++d)
        kern[d] = std::exp(-static_cast<double>(d) / sigma);

    linalg::Matrix a(n, n);
    for (size_t r = 0; r < n; ++r) {
        const auto dist = [r](size_t c) { return r > c ? r - c : c - r; };
        // Row-normalized locality.
        double local_sum = 0.0;
        for (size_t c = 0; c < n; ++c)
            local_sum += kern[dist(c)];

        double row_sum = 0.0;
        for (size_t c = 0; c < n; ++c) {
            const double local = local_mass * kern[dist(c)] / local_sum;
            const double global = g_mass * col_gmass[c];
            const double background =
                bg_mass * rng.uniform() * 2.0 / static_cast<double>(n);
            const double jitter =
                std::exp(rng.normal(0.0, cfg_.jitterSigma));
            const double v = (local + global + background) * jitter;
            a(r, c) = static_cast<float>(v);
            row_sum += v;
        }
        const auto inv = static_cast<float>(1.0 / row_sum);
        for (size_t c = 0; c < n; ++c)
            a(r, c) *= inv;
    }
    return a;
}

} // namespace vitcod::model
