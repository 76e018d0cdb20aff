// The k-skyband reference computation (geometry::KSkyband: cost and band
// fraction), unpruned K-SETr time on dominance-heavy (correlated) vs
// adversarial (anticorrelated) data, and the prepared dataset's chain of
// k-band candidate indexes under the engine's k patterns.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/kset_sampler.h"
#include "core/prepared_dataset.h"
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

void BM_CandidateChain(benchmark::State& state) {
  // cold_explore's SOLVE ladder 500 -> 70, then a DUAL search's probe
  // order, through one PreparedDataset's SharedCandidateIndex on uniform
  // n = 20000, d = 4 under the default build policy. One iteration is the
  // whole sequence from a fresh prepared dataset (its creation untimed).
  // builds and declines count the requests that were not served from the
  // chain (the rest reused a retained index); retained and candidate_bytes
  // describe the chain the sequence left.
  const Dataset ds = rrr::data::GenerateUniform(20000, 4, 1);
  const std::vector<size_t> ks = {500,  400,  350,  300, 260, 230, 200,
                                  180,  160,  140,  120, 100, 90,  80,
                                  70,   10000, 5000, 2500, 1250, 625, 937,
                                  781,  859,  820,  839, 829, 824, 822, 821};
  size_t builds = 0;
  size_t declines = 0;
  size_t retained = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::shared_ptr<const rrr::core::PreparedDataset> prepared =
        rrr::core::PreparedDataset::Create(ds).value();
    state.ResumeTiming();
    builds = 0;
    declines = 0;
    for (size_t k : ks) {
      bool hit = false;
      auto index = prepared->SharedCandidateIndex(k, 1, {}, &hit).value();
      benchmark::DoNotOptimize(index);
      if (!hit) ++(index != nullptr ? builds : declines);
    }
    retained = prepared->CandidateChain().size();
    bytes = prepared->ApproxArtifactBytes().candidates;
  }
  state.counters["requests"] = static_cast<double>(ks.size());
  state.counters["builds"] = static_cast<double>(builds);
  state.counters["declines"] = static_cast<double>(declines);
  state.counters["retained"] = static_cast<double>(retained);
  state.counters["candidate_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CandidateChain)->Unit(benchmark::kMillisecond);

}  // namespace
