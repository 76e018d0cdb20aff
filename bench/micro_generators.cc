// Micro-benchmarks for the workload generators (they sit on the critical
// path of every figure bench) and for CSV ingest, the first cost of every
// REGISTER of a real extract.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/csv.h"
#include "data/generators.h"

namespace {

void BM_GenerateUniform(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::data::GenerateUniform(n, 4, 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateUniform)->Arg(10000)->Arg(100000);

void BM_GenerateDotLike(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::data::GenerateDotLike(n, 2));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateDotLike)->Arg(10000)->Arg(100000);

void BM_GenerateBnLike(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::data::GenerateBnLike(n, 3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateBnLike)->Arg(10000)->Arg(100000);

void BM_GenerateAnticorrelated(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrr::data::GenerateAnticorrelated(n, 4, 4));
  }
}
BENCHMARK(BM_GenerateAnticorrelated)->Arg(10000)->Arg(100000);

// ReadCsv on files WriteCsv produced ('%.17g' cells): arg 0 = BN-like
// n=20000 d=5, arg 1 = uniform n=50000 d=2. Each file is written once per
// process under $TMPDIR (or /tmp); Time is milliseconds per ReadCsv call.
const std::string& CsvFixture(int64_t which) {
  static const std::array<std::string, 2> paths = [] {
    const char* tmp = std::getenv("TMPDIR");
    const std::string dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
    const std::string bn = dir + "/rrr_bm_read_csv_bn.csv";
    const std::string uniform = dir + "/rrr_bm_read_csv_uniform.csv";
    if (!rrr::data::WriteCsv(bn, rrr::data::GenerateBnLike(20000, 1)).ok() ||
        !rrr::data::WriteCsv(uniform, rrr::data::GenerateUniform(50000, 2, 4))
             .ok()) {
      std::fprintf(stderr, "BM_ReadCsv: cannot write fixtures under %s\n",
                   dir.c_str());
      std::abort();
    }
    return std::array<std::string, 2>{bn, uniform};
  }();
  return paths[static_cast<size_t>(which)];
}

void BM_ReadCsv(benchmark::State& state) {
  const std::string& path = CsvFixture(state.range(0));
  size_t rows = 0;
  for (auto _ : state) {
    rrr::Result<rrr::data::Dataset> loaded = rrr::data::ReadCsv(path);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    rows = loaded->size();
    benchmark::DoNotOptimize(loaded->flat());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ReadCsv)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
