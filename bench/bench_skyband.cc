// k-skyband candidate-pruning bench: every top-k hot path (MDRC corner
// evaluations, the sampled evaluator, K-SETr draws, the 2D sweep) timed
// unpruned vs pruned over the shared CandidateIndex, on skyband-friendly
// (DOT-like) data and the anti-correlated worst case where the index
// declines to build. The committed BENCH_skyband.json is this driver's
// output (NOTE: measured in the 1-CPU bench container, like every
// committed BENCH file).
//
// Variants per scenario:
//   unpruned      — the full-dataset mirror scan (each solver builds its
//                   serial mirror inside the timed region)
//   pruned+build  — cold: index construction included (first engine query)
//   pruned        — warm: index shared, as in prepare-once/query-many
// Representatives/regrets are bit-identical across variants (pinned by
// tests/core/skyband_equivalence_test.cc); rows differ only in wall time.
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/candidate_index.h"
#include "core/evaluator.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/rrr2d.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "figure_util.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace {

using namespace rrr;

void Row(const std::string& scenario, const std::string& dist, size_t n,
         size_t d, size_t k, const std::string& variant, double seconds,
         size_t band_size, size_t output, double speedup) {
  bench::PrintRow({scenario, dist, StrFormat("%zu", n), StrFormat("%zu", d),
                   StrFormat("%zu", k), variant, StrFormat("%.4f", seconds),
                   StrFormat("%zu", band_size), StrFormat("%zu", output),
                   StrFormat("%.2f", speedup)});
}

/// Builds the index with default (profitability-gated) options — exactly
/// what PreparedDataset does — reporting build time and band size. Null
/// index means the build declined (anti-correlated worst case).
std::shared_ptr<const core::CandidateIndex> BuildIndex(
    const data::Dataset& ds, size_t k, double* build_seconds) {
  Stopwatch timer;
  Result<core::CandidateIndex::Outcome> outcome =
      core::CandidateIndex::Create(ds, k);
  *build_seconds = timer.ElapsedSeconds();
  RRR_CHECK_OK(outcome.status());
  return outcome->index;
}

void MdrcScenario(const std::string& dist, const data::Dataset& ds,
                  size_t k) {
  const size_t n = ds.size();
  const size_t d = ds.dims();
  double build = 0.0;
  const auto index = BuildIndex(ds, k, &build);
  const size_t band = index != nullptr ? index->band_size() : 0;

  // Fresh private corner cache per solve: cross-solve memoization would
  // turn the repeat solves into cache lookups and hide the scan cost.
  auto solve = [&](const core::CandidateIndex* candidates, size_t* out) {
    Stopwatch timer;
    Result<std::vector<int32_t>> rep =
        core::SolveMdrc(ds, k, {}, nullptr, {}, nullptr, candidates);
    RRR_CHECK_OK(rep.status());
    *out = rep->size();
    return timer.ElapsedSeconds();
  };
  size_t out = 0;
  const double unpruned = solve(nullptr, &out);
  const double pruned = solve(index.get(), &out);
  Row("mdrc", dist, n, d, k, "unpruned", unpruned, band, out, 1.0);
  Row("mdrc", dist, n, d, k, "pruned+build", pruned + build, band, out,
      unpruned / (pruned + build));
  Row("mdrc", dist, n, d, k, "pruned", pruned, band, out, unpruned / pruned);
}

void Rrr2dScenario(const std::string& dist, const data::Dataset& ds,
                   size_t k) {
  const size_t n = ds.size();
  double build = 0.0;
  const auto index = BuildIndex(ds, k, &build);
  const size_t band = index != nullptr ? index->band_size() : 0;
  auto solve = [&](const core::CandidateIndex* candidates, size_t* out) {
    Stopwatch timer;
    Result<std::vector<int32_t>> rep =
        core::Solve2dRrr(ds, k, {}, {}, nullptr, candidates);
    RRR_CHECK_OK(rep.status());
    *out = rep->size();
    return timer.ElapsedSeconds();
  };
  size_t out = 0;
  const double unpruned = solve(nullptr, &out);
  const double pruned = solve(index.get(), &out);
  Row("2drrr", dist, n, 2, k, "unpruned", unpruned, band, out, 1.0);
  Row("2drrr", dist, n, 2, k, "pruned+build", pruned + build, band, out,
      unpruned / (pruned + build));
  Row("2drrr", dist, n, 2, k, "pruned", pruned, band, out,
      unpruned / pruned);
}

void EvaluatorScenario(const std::string& dist, const data::Dataset& ds,
                       size_t k, size_t num_functions) {
  const size_t n = ds.size();
  const size_t d = ds.dims();
  double build = 0.0;
  const auto index = BuildIndex(ds, k, &build);
  const size_t band = index != nullptr ? index->band_size() : 0;
  // Subset under audit: the diagonal function's top-k — representative-like
  // (low regret) without paying a solver run inside the timed region.
  const topk::LinearFunction diagonal{geometry::Vec(d, 1.0)};
  Result<data::ColumnBlocks> mirror = data::ColumnBlocks::Build(ds, 1);
  RRR_CHECK_OK(mirror.status());
  const std::vector<int32_t> subset = topk::TopKSetScan(*mirror, diagonal, k);
  core::SampledRegretOptions options;
  options.num_functions = num_functions;
  auto evaluate = [&](const core::CandidateIndex* candidates) {
    Stopwatch timer;
    Result<int64_t> regret =
        core::SampledRankRegretEstimate(ds, subset, options, {}, candidates);
    RRR_CHECK_OK(regret.status());
    return timer.ElapsedSeconds();
  };
  const double unpruned = evaluate(nullptr);
  const double pruned = evaluate(index.get());
  Row("eval-sampled", dist, n, d, k, "unpruned", unpruned, band,
      subset.size(), 1.0);
  Row("eval-sampled", dist, n, d, k, "pruned+build", pruned + build, band,
      subset.size(), unpruned / (pruned + build));
  Row("eval-sampled", dist, n, d, k, "pruned", pruned, band, subset.size(),
      unpruned / pruned);
}

void SamplerScenario(const std::string& dist, const data::Dataset& ds,
                     size_t k) {
  const size_t n = ds.size();
  const size_t d = ds.dims();
  double build = 0.0;
  const auto index = BuildIndex(ds, k, &build);
  const size_t band = index != nullptr ? index->band_size() : 0;
  auto sample = [&](const core::CandidateIndex* candidates, size_t* ksets) {
    Stopwatch timer;
    Result<core::KSetSampleResult> result =
        core::SampleKSets(ds, k, {}, {}, candidates);
    RRR_CHECK_OK(result.status());
    *ksets = result->ksets.size();
    return timer.ElapsedSeconds();
  };
  size_t ksets = 0;
  const double unpruned = sample(nullptr, &ksets);
  const double pruned = sample(index.get(), &ksets);
  Row("ksetr", dist, n, d, k, "unpruned", unpruned, band, ksets, 1.0);
  Row("ksetr", dist, n, d, k, "pruned+build", pruned + build, band, ksets,
      unpruned / (pruned + build));
  Row("ksetr", dist, n, d, k, "pruned", pruned, band, ksets,
      unpruned / pruned);
}

}  // namespace

int main() {
  bench::PrintFigureHeader(
      "skyband", "Skyband pruning",
      "k-skyband candidate index vs full scans on every top-k hot path, "
      "under the default (profitability-gated) build policy; uniform and "
      "correlated data prune hard, tie-heavy DOT-like columns and the "
      "anti-correlated worst case decline and stay at the unpruned "
      "baseline",
      "scenario,distribution,n,d,k,variant,time_sec,band_size,output,"
      "speedup_vs_unpruned");

  // Index construction cost (or the cost of declining) across the n x d
  // grid at k = 1% of n — the amortized one-off every pruned engine query
  // shares. band_size 0 = the build declined.
  for (size_t n : {size_t{10000}, size_t{100000}}) {
    for (const char* dist : {"dotlike", "uniform", "correlated"}) {
      for (size_t d : {size_t{2}, size_t{4}, size_t{6}}) {
        const data::Dataset ds =
            std::string(dist) == "dotlike"
                ? data::GenerateDotLike(n, 42).ProjectPrefix(d)
                : (std::string(dist) == "uniform"
                       ? data::GenerateUniform(n, d, 42)
                       : data::GenerateCorrelated(n, d, 42, 0.7));
        const size_t k = n / 100;
        double build = 0.0;
        const auto index = BuildIndex(ds, k, &build);
        Row("index-build", dist, n, d, k, "build", build,
            index != nullptr ? index->band_size() : 0, 0, 1.0);
      }
    }
  }

  // MDRC: pruning pays where the partition tree is non-trivial AND the
  // band is small — small k on weakly-correlated data. Tie-heavy DOT-like
  // columns at d >= 4 decline (their band is most of n), pinning the
  // no-regression side.
  MdrcScenario("uniform", data::GenerateUniform(10000, 4, 42), 20);
  MdrcScenario("uniform", data::GenerateUniform(100000, 4, 42), 100);
  MdrcScenario("correlated", data::GenerateCorrelated(100000, 6, 42, 0.7),
               1000);
  MdrcScenario("dotlike", data::GenerateDotLike(100000, 42).ProjectPrefix(4),
               1000);

  // 2D sweep: O(n^2) exchange events unpruned makes n=10k the ceiling for
  // the unpruned baseline; the pruned sweep runs over the band only.
  Rrr2dScenario("dotlike", data::GenerateDotLike(10000, 42).ProjectPrefix(2),
                100);
  Rrr2dScenario("uniform", data::GenerateUniform(10000, 2, 42), 100);

  // Sampled evaluator at the paper's 10k-function protocol. Correlated
  // d=4 at n=100k is the acceptance scenario; DOT-like d=4 declines under
  // the default build budget and stays at the baseline.
  EvaluatorScenario("correlated", data::GenerateCorrelated(10000, 4, 42, 0.7),
                    100, 10000);
  EvaluatorScenario("correlated",
                    data::GenerateCorrelated(100000, 4, 42, 0.7), 1000,
                    10000);
  EvaluatorScenario("dotlike",
                    data::GenerateDotLike(100000, 42).ProjectPrefix(4), 1000,
                    10000);

  // K-SETr draws through the shared index. d=3 keeps the coupon-collector
  // sample count (and this driver's smoke runtime) bounded — at d=4 the
  // distinct k-set count explodes into hundreds of thousands of draws.
  SamplerScenario("correlated", data::GenerateCorrelated(8000, 3, 42, 0.7),
                  50);

  // Anti-correlated worst case: the pre-check declines the index (band ~ n)
  // in milliseconds and every pruned variant degrades to the unpruned path
  // — the "no regression > 5%" guard.
  EvaluatorScenario("anticorrelated",
                    data::GenerateAnticorrelated(100000, 4, 42), 1000, 10000);
  Rrr2dScenario("anticorrelated", data::GenerateAnticorrelated(10000, 2, 42),
                100);

  return 0;
}
