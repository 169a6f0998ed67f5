/**
 * @file
 * google-benchmark microbenchmarks of the golden kernels at DeiT
 * shapes — library QA rather than a paper figure: these are the
 * functional references every accelerator model is validated
 * against, so their throughput bounds the test suite's and benches'
 * wall time.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/split_conquer.h"
#include "linalg/kernels.h"
#include "linalg/sparse_kernels.h"
#include "model/attention_gen.h"

using namespace vitcod;

namespace {

sparse::BitMask
deitMask(double sparsity)
{
    const model::AttentionMapGenerator gen(model::deitSmall());
    core::SplitConquerConfig sc;
    sc.mode = core::PruneMode::TargetSparsity;
    sc.targetSparsity = sparsity;
    return core::splitConquer(gen.generate(6, 0), sc).mask;
}

void
BM_GemmQkvProjection(benchmark::State &state)
{
    Rng rng(1);
    const auto x = linalg::Matrix::randomNormal(197, 384, rng);
    const auto w = linalg::Matrix::randomNormal(384, 384, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::gemm(x, w));
    state.SetItemsProcessed(state.iterations() * 197 * 384 * 384);
}
BENCHMARK(BM_GemmQkvProjection);

void
BM_DenseAttentionScores(benchmark::State &state)
{
    Rng rng(2);
    const auto q = linalg::Matrix::randomNormal(197, 64, rng);
    const auto k = linalg::Matrix::randomNormal(197, 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::gemmTransB(q, k));
    state.SetItemsProcessed(state.iterations() * 197 * 197 * 64);
}
BENCHMARK(BM_DenseAttentionScores);

void
BM_Sddmm(benchmark::State &state)
{
    const double sparsity = state.range(0) / 100.0;
    Rng rng(3);
    const auto q = linalg::Matrix::randomNormal(197, 64, rng);
    const auto k = linalg::Matrix::randomNormal(197, 64, rng);
    const auto mask = deitMask(sparsity);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::sddmm(q, k, mask, 0.125f));
    state.SetItemsProcessed(state.iterations() * mask.nnz() * 64);
}
BENCHMARK(BM_Sddmm)->Arg(50)->Arg(80)->Arg(90)->Arg(95);

void
BM_SpmmAttention(benchmark::State &state)
{
    const double sparsity = state.range(0) / 100.0;
    Rng rng(4);
    const auto q = linalg::Matrix::randomNormal(197, 64, rng);
    const auto k = linalg::Matrix::randomNormal(197, 64, rng);
    const auto v = linalg::Matrix::randomNormal(197, 64, rng);
    const auto mask = deitMask(sparsity);
    const auto s =
        linalg::maskedSoftmaxRows(linalg::sddmm(q, k, mask, 0.125f));
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::spmm(s, v));
    state.SetItemsProcessed(state.iterations() * s.nnz() * 64);
}
BENCHMARK(BM_SpmmAttention)->Arg(50)->Arg(90);

void
BM_SplitConquerOneHead(benchmark::State &state)
{
    const model::AttentionMapGenerator gen(model::deitBase());
    const auto a = gen.generate(6, 3);
    core::SplitConquerConfig sc;
    sc.mode = core::PruneMode::TargetSparsity;
    sc.targetSparsity = 0.9;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::splitConquer(a, sc));
}
BENCHMARK(BM_SplitConquerOneHead);

void
BM_AttentionMapGeneration(benchmark::State &state)
{
    const model::AttentionMapGenerator gen(model::deitBase());
    size_t layer = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.generate(layer % 12, 0));
        ++layer;
    }
}
BENCHMARK(BM_AttentionMapGeneration);

} // namespace

BENCHMARK_MAIN();
