// The k-skyband reference computation (geometry::KSkyband: cost and band
// fraction) and unpruned K-SETr time on dominance-heavy (correlated) vs
// adversarial (anticorrelated) data.
#include <benchmark/benchmark.h>

#include "core/kset_sampler.h"
#include "data/generators.h"
#include "geometry/dominance.h"

namespace {

using rrr::core::KSetSamplerOptions;
using rrr::core::SampleKSets;
using rrr::data::Dataset;

void BM_KSkyband(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset ds = rrr::data::GenerateDotLike(n, 1).ProjectPrefix(3);
  size_t band_size = 0;
  for (auto _ : state) {
    const auto band =
        rrr::geometry::KSkyband(ds.flat(), ds.size(), ds.dims(), 20);
    band_size = band.size();
    benchmark::DoNotOptimize(band);
  }
  state.counters["band_fraction"] =
      static_cast<double>(band_size) / static_cast<double>(n);
}
BENCHMARK(BM_KSkyband)->Arg(1000)->Arg(5000);

void RunSampler(benchmark::State& state, const Dataset& ds) {
  KSetSamplerOptions opts;
  opts.termination_count = 50;
  size_t ksets = 0;
  for (auto _ : state) {
    auto sample = SampleKSets(ds, 20, opts);
    ksets = sample->ksets.size();
    benchmark::DoNotOptimize(sample);
  }
  state.counters["ksets"] = static_cast<double>(ksets);
}

void BM_KSetr_Correlated(benchmark::State& state) {
  const Dataset ds = rrr::data::GenerateCorrelated(
      static_cast<size_t>(state.range(0)), 3, 2, 0.9);
  RunSampler(state, ds);
}
BENCHMARK(BM_KSetr_Correlated)->Arg(2000);

void BM_KSetr_Anticorrelated(benchmark::State& state) {
  const Dataset ds = rrr::data::GenerateAnticorrelated(
      static_cast<size_t>(state.range(0)), 3, 2);
  RunSampler(state, ds);
}
BENCHMARK(BM_KSetr_Anticorrelated)->Arg(2000);

}  // namespace
