// Micro-benchmarks for the LP substrate: the separation LP dominates exact
// k-set graph enumeration (O(nk) solves per k-set).
#include <benchmark/benchmark.h>

#include "data/column_blocks.h"
#include "data/generators.h"
#include "lp/separation.h"
#include "lp/simplex.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace {

using rrr::data::Dataset;
using rrr::data::GenerateUniform;

void BM_SeparationLp(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const size_t k = 5;
  const Dataset ds = GenerateUniform(n, d, 1);
  // A genuine k-set (top-k of the all-ones function): worst case for the
  // solver because the LP runs to optimality.
  rrr::geometry::Vec w(d, 1.0);
  const rrr::data::ColumnBlocks blocks =
      rrr::data::ColumnBlocks::Build(ds, 1).value();
  const std::vector<int32_t> inside =
      rrr::topk::TopKSetScan(blocks, rrr::topk::LinearFunction(w), k);
  for (auto _ : state) {
    auto sep = rrr::lp::FindSeparatingWeights(ds.flat(), n, d, inside);
    benchmark::DoNotOptimize(sep);
  }
}
BENCHMARK(BM_SeparationLp)
    ->Args({32, 2})
    ->Args({128, 3})
    ->Args({512, 3})
    ->Args({128, 6});

void BM_SimplexDense(benchmark::State& state) {
  // A box LP with m constraints over v variables.
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t v = static_cast<size_t>(state.range(1));
  rrr::lp::LpProblem p;
  p.num_vars = v;
  p.objective.assign(v, 1.0);
  for (size_t i = 0; i < m; ++i) {
    rrr::lp::Constraint c;
    c.coeffs.assign(v, 0.0);
    for (size_t j = 0; j < v; ++j) {
      c.coeffs[j] = static_cast<double>((i + j) % 7 + 1);
    }
    c.sense = rrr::lp::Sense::kLe;
    c.rhs = 10.0 + static_cast<double>(i % 5);
    p.constraints.push_back(std::move(c));
  }
  for (auto _ : state) {
    auto sol = rrr::lp::Solve(p);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexDense)->Args({50, 10})->Args({200, 20})->Args({500, 10});

}  // namespace
