// Micro-benchmarks + ablations for MDRC: scaling in n, d, k, and the value
// of the corner-top-k memo cache (the design choice DESIGN.md calls out).
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "core/mdrc.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "topk/score_kernel.h"

namespace {

using rrr::core::MdrcStats;
using rrr::core::SolveMdrc;
using rrr::data::Dataset;
using rrr::data::GenerateDotLike;

void BM_MdrcVaryN(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset ds = GenerateDotLike(n, 1).ProjectPrefix(3);
  const size_t k = std::max<size_t>(1, n / 100);
  MdrcStats stats;
  for (auto _ : state) {
    auto rep = SolveMdrc(ds, k, {}, &stats);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["cache_hit_ratio"] =
      static_cast<double>(stats.cache_hits) /
      static_cast<double>(stats.cache_hits + stats.corner_evals);
}
BENCHMARK(BM_MdrcVaryN)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MdrcVaryD(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset ds = GenerateDotLike(5000, 2).ProjectPrefix(d);
  MdrcStats stats;
  for (auto _ : state) {
    auto rep = SolveMdrc(ds, 50, {}, &stats);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
}
BENCHMARK(BM_MdrcVaryD)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_MdrcLeafReuseAblation(benchmark::State& state) {
  // range(0) == 1 -> reuse on (default), 0 -> the paper's literal "I[1]".
  const Dataset ds = GenerateDotLike(5000, 4).ProjectPrefix(5);
  rrr::core::MdrcOptions opts;
  opts.reuse_chosen = state.range(0) == 1;
  size_t size = 0;
  for (auto _ : state) {
    auto rep = SolveMdrc(ds, 50, opts);
    size = rep->size();
    benchmark::DoNotOptimize(rep);
  }
  state.counters["output_size"] = static_cast<double>(size);
}
BENCHMARK(BM_MdrcLeafReuseAblation)->Arg(0)->Arg(1);

void BM_MdrcThreads(benchmark::State& state) {
  // Per-depth corner evaluation across worker counts on BN-like data
  // (n = 20000, d = 5) over its columnar mirror: range(0) threads,
  // range(1) k. The representative is identical at every thread count.
  const Dataset ds = rrr::data::GenerateBnLike(20000, 1).ProjectPrefix(5);
  const rrr::data::ColumnBlocks blocks =
      rrr::data::ColumnBlocks::Build(ds, 1).value();
  rrr::core::MdrcOptions opts;
  opts.threads = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  MdrcStats stats;
  for (auto _ : state) {
    auto rep = SolveMdrc(ds, k, opts, &stats, {}, nullptr, nullptr, &blocks);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["corner_evals"] = static_cast<double>(stats.corner_evals);
}
BENCHMARK(BM_MdrcThreads)
    ->ArgsProduct({{1, 2, 4}, {20, 1186}})
    ->Unit(benchmark::kMillisecond);

void BM_MdrcKLadder(benchmark::State& state) {
  // The engine's k pattern over one shared corner memo on BN-like data
  // (n = 20000, d = 5): a SOLVE ladder k = 200 -> 20, then a dual search's
  // probe order, at range(0) threads. One iteration is the whole ladder
  // from an empty cache, so the reported (wall) time is the ladder's total;
  // ladder_ms repeats it as a counter for scripts. corner_evals is the
  // top-k scans the sequence paid, blocks_skipped the blocks its floored
  // scans never scored, cache_bytes the memo it left.
  const Dataset ds = rrr::data::GenerateBnLike(20000, 1).ProjectPrefix(5);
  const rrr::data::ColumnBlocks blocks =
      rrr::data::ColumnBlocks::Build(ds, 1).value();
  const std::vector<size_t> ks = {200,  100,  50,  20,  10000, 5000, 2500,
                                  1250, 625,  937, 1093, 1187, 1186};
  rrr::core::MdrcOptions opts;
  opts.threads = static_cast<size_t>(state.range(0));
  size_t evals = 0;
  size_t bytes = 0;
  uint64_t skipped = 0;
  double total_s = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const rrr::topk::ScanStats before = rrr::topk::ScanCountersSnapshot();
    rrr::core::CornerTopKCache cache(ds, size_t{1} << 21);
    evals = 0;
    for (size_t k : ks) {
      MdrcStats stats;
      auto rep = SolveMdrc(ds, k, opts, &stats, {}, &cache, nullptr, &blocks);
      benchmark::DoNotOptimize(rep);
      evals += stats.corner_evals;
    }
    bytes = cache.ApproxBytes();
    skipped = rrr::topk::ScanCountersSnapshot().blocks_skipped -
              before.blocks_skipped;
    total_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  state.counters["ladder_ms"] =
      1e3 * total_s / static_cast<double>(state.iterations());
  state.counters["solves"] = static_cast<double>(ks.size());
  state.counters["corner_evals"] = static_cast<double>(evals);
  state.counters["blocks_skipped"] = static_cast<double>(skipped);
  state.counters["cache_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_MdrcKLadder)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MdrcVaryK(benchmark::State& state) {
  const Dataset ds = GenerateDotLike(10000, 3).ProjectPrefix(3);
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto rep = SolveMdrc(ds, k);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_MdrcVaryK)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
