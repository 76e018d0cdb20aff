// Micro-benchmarks for the top-k substrate: selection vs full sort, the
// k-skyband band scan, rank queries, and the effect of k.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "core/candidate_index.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "topk/rank.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"
#include "topk/topk.h"

namespace {

using rrr::data::Dataset;
using rrr::data::GenerateUniform;
using rrr::topk::LinearFunction;

void BM_TopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const Dataset ds = GenerateUniform(n, 4, 1);
  LinearFunction f({0.4, 0.3, 0.2, 0.1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::topk::TopK(ds, f, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopK)
    ->Args({1000, 10})
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 1000});

void BM_TopKScanSweep(benchmark::State& state) {
  // The kernel's buffered selection across k on BN-like data (n = 20000,
  // d = 5 — the MDRC corner workload): range(1) == 0 times TopKScan
  // (best-first), 1 times TopKSetScan (ascending ids, no final sort).
  // Iterations cycle through 200 random functions; time is per scan.
  const size_t k = static_cast<size_t>(state.range(0));
  const bool as_set = state.range(1) == 1;
  const Dataset ds = rrr::data::GenerateBnLike(20000, 1).ProjectPrefix(5);
  const rrr::data::ColumnBlocks blocks =
      rrr::data::ColumnBlocks::Build(ds, 1).value();
  rrr::Rng rng(7);
  std::vector<LinearFunction> funcs;
  for (int i = 0; i < 200; ++i) funcs.emplace_back(rng.UnitWeightVector(5));
  size_t next = 0;
  for (auto _ : state) {
    const LinearFunction& f = funcs[next++ % funcs.size()];
    benchmark::DoNotOptimize(as_set ? rrr::topk::TopKSetScan(blocks, f, k)
                                    : rrr::topk::TopKScan(blocks, f, k));
  }
  state.SetLabel(as_set ? "TopKSetScan" : "TopKScan");
}
BENCHMARK(BM_TopKScanSweep)
    ->ArgsProduct({{20, 200, 1186, 5000, 10000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_CandidateIndexTopKSet(benchmark::State& state) {
  // The k-skyband band scan every pruned top-k hot path runs (MDRC corners,
  // K-SETr draws): CandidateIndex::TopKSet on correlated data (n = 20000,
  // d = 4, rho 0.9). The index is built once per k, outside the timing;
  // iterations cycle through 400 random functions, time is per query.
  const size_t k = static_cast<size_t>(state.range(0));
  const Dataset ds = rrr::data::GenerateCorrelated(20000, 4, 1, 0.9);
  const rrr::Result<rrr::core::CandidateIndex::Outcome> outcome =
      rrr::core::CandidateIndex::Create(ds, k);
  if (!outcome.ok() || outcome->index == nullptr) {
    state.SkipWithError("candidate index declined or failed");
    return;
  }
  const rrr::core::CandidateIndex& index = *outcome->index;
  rrr::Rng rng(11);
  std::vector<LinearFunction> funcs;
  for (int i = 0; i < 400; ++i) funcs.emplace_back(rng.UnitWeightVector(4));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopKSet(funcs[next++ % funcs.size()], k));
  }
  state.counters["band_size"] = static_cast<double>(index.band_size());
}
BENCHMARK(BM_CandidateIndexTopKSet)
    ->Arg(20)
    ->Arg(200)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_RankOf(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset ds = GenerateUniform(n, 4, 2);
  LinearFunction f({0.25, 0.25, 0.25, 0.25});
  int32_t item = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::topk::RankOf(ds, f, item));
    item = (item + 1) % static_cast<int32_t>(n);
  }
}
BENCHMARK(BM_RankOf)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MinRankOfSubset(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset ds = GenerateUniform(n, 4, 3);
  LinearFunction f({0.25, 0.25, 0.25, 0.25});
  std::vector<int32_t> subset;
  for (size_t i = 0; i < 20; ++i) {
    subset.push_back(static_cast<int32_t>(i * n / 20));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::topk::MinRankOfSubset(ds, f, subset));
  }
}
BENCHMARK(BM_MinRankOfSubset)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
