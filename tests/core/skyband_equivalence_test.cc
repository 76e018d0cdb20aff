// The k-skyband candidate-pruning layer (core/candidate_index.h) carries a
// bit-identical-output contract: every solver and evaluator must produce
// exactly the same representatives, regrets, and ranks with and without the
// index, for every thread count, on every dataset family — including the
// tie-heavy ones (duplicates, constant-ish columns) where plain Pareto
// dominance pruning would break the (score desc, id asc) tie order under
// zero-weight corner/endpoint functions. These tests pin that contract plus
// the band's monotonicity in k.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/candidate_index.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/find_ranges.h"
#include "core/kset_graph.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "data/generators.h"
#include "eval/rank_regret.h"
#include "topk/rank.h"
#include "topk/score_kernel.h"
#include "topk/topk.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

/// Options that force the index to build regardless of profitability — the
/// equivalence contract must hold even where pruning does not pay.
CandidateIndexOptions ForceBuild() {
  CandidateIndexOptions options;
  options.min_dataset_size = 0;
  options.max_band_fraction = 1.0;
  options.precheck_sample = 0;
  options.budget_slack_per_tuple = 0;
  return options;
}

std::shared_ptr<const CandidateIndex> MustBuild(const data::Dataset& ds,
                                                size_t k) {
  Result<CandidateIndex::Outcome> outcome =
      CandidateIndex::Create(ds, k, ForceBuild());
  RRR_CHECK(outcome.ok()) << outcome.status().ToString();
  RRR_CHECK(outcome->index != nullptr) << outcome->decline_reason;
  return outcome->index;
}

struct Family {
  std::string name;
  data::Dataset data;
};

/// The ISSUE's dataset families: uniform, correlated, anti-correlated,
/// duplicate-heavy, and a constant-ish column.
std::vector<Family> Families(size_t n, size_t d, uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"uniform", data::GenerateUniform(n, d, seed)});
  families.push_back(
      {"correlated", data::GenerateCorrelated(n, d, seed + 1, 0.9)});
  families.push_back(
      {"anticorrelated", data::GenerateAnticorrelated(n, d, seed + 2)});
  {
    // Duplicate-heavy: a small distinct pool cycled to n rows, coordinates
    // quantized so cross-row score ties are common too.
    const data::Dataset pool = data::GenerateUniform(n / 8 + 2, d, seed + 3);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double* r = pool.row(i % pool.size());
      std::vector<double> row(r, r + d);
      for (double& v : row) v = std::round(v * 8.0) / 8.0;
      rows.push_back(std::move(row));
    }
    families.push_back({"duplicate-heavy", testing::MakeDataset(rows)});
  }
  {
    // Constant-ish column: column 0 identical everywhere — every function
    // weighting it alone resolves purely by the id tie-break, the case
    // plain dominance pruning gets wrong.
    const data::Dataset base = data::GenerateUniform(n, d, seed + 4);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double* r = base.row(i);
      std::vector<double> row(r, r + d);
      row[0] = 0.5;
      rows.push_back(std::move(row));
    }
    families.push_back({"constant-column", testing::MakeDataset(rows)});
  }
  return families;
}

/// Probe functions that stress the tie order: every axis, the diagonal,
/// and a few random draws.
std::vector<topk::LinearFunction> ProbeFunctions(size_t d, uint64_t seed) {
  std::vector<topk::LinearFunction> funcs;
  for (size_t axis = 0; axis < d; ++axis) {
    geometry::Vec w(d, 0.0);
    w[axis] = 1.0;
    funcs.emplace_back(std::move(w));
  }
  funcs.emplace_back(geometry::Vec(d, 1.0));
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    funcs.emplace_back(rng.UnitWeightVector(static_cast<int>(d)));
  }
  return funcs;
}

TEST(SkybandEquivalenceTest, TopKMatchesFullScanOnEveryFamily) {
  std::vector<Family> families = Families(300, 3, 7);
  // Large enough that the band spans many 64-row blocks, so block skip
  // fires inside the band scan.
  families.push_back({"uniform-5000x4", data::GenerateUniform(5000, 4, 8)});
  for (const Family& family : families) {
    for (size_t k : {1u, 7u, 40u}) {
      const auto index = MustBuild(family.data, k);
      const topk::ScanStats before = topk::ScanCountersSnapshot();
      for (const topk::LinearFunction& f :
           ProbeFunctions(family.data.dims(), 99)) {
        // The band contract covers every k' <= k, not just k itself.
        for (size_t kq : {size_t{1}, k / 2, k}) {
          EXPECT_EQ(index->TopK(f, kq), topk::TopK(family.data, f, kq))
              << family.name << " k=" << k << " k'=" << kq;
          EXPECT_EQ(index->TopKSet(f, kq), topk::TopKSet(family.data, f, kq))
              << family.name << " k=" << k << " k'=" << kq;
        }
      }
      const data::ColumnBlocks& mirror = *index->band_blocks();
      if (mirror.num_blocks() >= 8 &&
          topk::BlockSkipResolved(topk::BlockSkip::kAuto, mirror)) {
        EXPECT_GT(topk::ScanCountersSnapshot().blocks_skipped,
                  before.blocks_skipped)
            << family.name << " k=" << k << ": no band block was skipped";
      }
    }
  }
}

TEST(SkybandEquivalenceTest, TopKClampAndOversizedK) {
  const data::Dataset ds = data::GenerateUniform(50, 3, 3);
  const auto index = MustBuild(ds, ds.size() + 10);
  EXPECT_EQ(index->band_size(), ds.size());  // k >= n keeps everything
  for (const topk::LinearFunction& f : ProbeFunctions(3, 5)) {
    EXPECT_EQ(index->TopK(f, ds.size() + 10),
              topk::TopK(ds, f, ds.size() + 10));
  }
}

TEST(SkybandEquivalenceTest, BandIsMonotoneInK) {
  for (const Family& family : Families(250, 3, 11)) {
    std::vector<int32_t> previous;
    for (size_t k = 1; k <= 12; ++k) {
      const auto index = MustBuild(family.data, k);
      const std::vector<int32_t>& band = index->band_ids();
      EXPECT_TRUE(std::includes(band.begin(), band.end(), previous.begin(),
                                previous.end()))
          << family.name << ": (k=" << k << ")-band lost members of the "
          << "(k-1)-band";
      previous = band;
    }
  }
}

TEST(SkybandEquivalenceTest, SlicedCountsMatchDirectBuild) {
  const data::Dataset ds = data::GenerateCorrelated(300, 3, 17, 0.8);
  Result<std::vector<uint32_t>> counts =
      CandidateIndex::CountAlwaysOutrankers(ds, 20);
  ASSERT_TRUE(counts.ok());
  for (size_t k : {1u, 5u, 20u}) {
    Result<CandidateIndex::Outcome> sliced =
        CandidateIndex::Create(ds, k, ForceBuild(), {}, &counts.value());
    ASSERT_TRUE(sliced.ok());
    ASSERT_NE(sliced->index, nullptr);
    EXPECT_EQ(sliced->index->band_ids(), MustBuild(ds, k)->band_ids())
        << "k=" << k;
  }
}

TEST(SkybandEquivalenceTest, Solve2dRrrPrunedMatchesUnpruned) {
  for (const Family& family : Families(300, 2, 23)) {
    for (size_t k : {1u, 5u, 20u}) {
      const auto index = MustBuild(family.data, k);
      Result<std::vector<int32_t>> unpruned = Solve2dRrr(family.data, k);
      Result<std::vector<int32_t>> pruned =
          Solve2dRrr(family.data, k, {}, {}, nullptr, index.get());
      ASSERT_TRUE(unpruned.ok()) << family.name;
      ASSERT_TRUE(pruned.ok()) << family.name;
      EXPECT_EQ(*unpruned, *pruned) << family.name << " k=" << k;
    }
  }
}

TEST(SkybandEquivalenceTest, FindRangesPrunedMatchesUnpruned) {
  for (const Family& family : Families(250, 2, 29)) {
    const size_t k = 6;
    const auto index = MustBuild(family.data, k);
    Result<std::vector<ItemRange>> unpruned = FindRanges(family.data, k);
    Result<std::vector<ItemRange>> pruned =
        FindRanges(family.data, k, {}, nullptr, index.get());
    ASSERT_TRUE(unpruned.ok());
    ASSERT_TRUE(pruned.ok());
    ASSERT_EQ(unpruned->size(), pruned->size());
    for (size_t i = 0; i < unpruned->size(); ++i) {
      EXPECT_EQ((*unpruned)[i].in_topk, (*pruned)[i].in_topk)
          << family.name << " id " << i;
      if ((*unpruned)[i].in_topk) {
        EXPECT_EQ((*unpruned)[i].begin, (*pruned)[i].begin)
            << family.name << " id " << i;
        EXPECT_EQ((*unpruned)[i].end, (*pruned)[i].end)
            << family.name << " id " << i;
      }
    }
  }
}

TEST(SkybandEquivalenceTest, MdrcPrunedMatchesUnprunedAcrossThreadCounts) {
  for (const Family& family : Families(300, 3, 31)) {
    for (size_t k : {3u, 15u}) {
      const auto index = MustBuild(family.data, k);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        MdrcOptions options;
        options.threads = threads;
        // The constant-column family is degenerate by design: MDRC splits
        // to the depth cap along the tied axis and exhausts any node
        // budget. Cap it low — the contract then is that the pruned solve
        // fails (or succeeds) exactly like the unpruned one.
        options.max_nodes = 20000;
        MdrcStats unpruned_stats;
        MdrcStats pruned_stats;
        Result<std::vector<int32_t>> unpruned =
            SolveMdrc(family.data, k, options, &unpruned_stats);
        Result<std::vector<int32_t>> pruned = SolveMdrc(
            family.data, k, options, &pruned_stats, {}, nullptr, index.get());
        ASSERT_EQ(unpruned.status().code(), pruned.status().code())
            << family.name;
        if (!unpruned.ok()) continue;
        EXPECT_EQ(*unpruned, *pruned)
            << family.name << " k=" << k << " threads=" << threads;
        // The partition tree — and with it every structural counter — must
        // not notice the pruning.
        EXPECT_EQ(unpruned_stats.nodes, pruned_stats.nodes) << family.name;
        EXPECT_EQ(unpruned_stats.leaves, pruned_stats.leaves) << family.name;
        EXPECT_EQ(unpruned_stats.depth_cap_leaves,
                  pruned_stats.depth_cap_leaves)
            << family.name;
        EXPECT_EQ(unpruned_stats.max_depth, pruned_stats.max_depth)
            << family.name;
        EXPECT_EQ(pruned_stats.skyband_size, index->band_size());
        EXPECT_EQ(unpruned_stats.skyband_size, 0u);
      }
    }
  }
}

TEST(SkybandEquivalenceTest, SamplerAndMdrrrPrunedMatchUnpruned) {
  for (const Family& family : Families(250, 3, 37)) {
    const size_t k = 10;
    const auto index = MustBuild(family.data, k);
    KSetSamplerOptions sampler;
    sampler.termination_count = 40;
    Result<KSetSampleResult> unpruned = SampleKSets(family.data, k, sampler);
    Result<KSetSampleResult> pruned =
        SampleKSets(family.data, k, sampler, {}, index.get());
    ASSERT_TRUE(unpruned.ok()) << family.name;
    ASSERT_TRUE(pruned.ok()) << family.name;
    EXPECT_EQ(unpruned->samples_drawn, pruned->samples_drawn) << family.name;
    ASSERT_EQ(unpruned->ksets.size(), pruned->ksets.size()) << family.name;
    for (size_t i = 0; i < unpruned->ksets.size(); ++i) {
      EXPECT_EQ(unpruned->ksets.sets()[i].ids, pruned->ksets.sets()[i].ids)
          << family.name << " sample " << i;
    }

    Result<std::vector<int32_t>> mdrrr_unpruned =
        SolveMdrrrSampled(family.data, k, {}, sampler);
    Result<std::vector<int32_t>> mdrrr_pruned =
        SolveMdrrrSampled(family.data, k, {}, sampler, {}, index.get());
    ASSERT_TRUE(mdrrr_unpruned.ok()) << family.name;
    ASSERT_TRUE(mdrrr_pruned.ok()) << family.name;
    EXPECT_EQ(*mdrrr_unpruned, *mdrrr_pruned) << family.name;
  }
}

TEST(SkybandEquivalenceTest, MinRankOfSubsetExactIncludingFallbacks) {
  for (const Family& family : Families(300, 3, 41)) {
    const size_t k = 8;
    const auto index = MustBuild(family.data, k);
    Rng rng(5);
    for (const topk::LinearFunction& f : ProbeFunctions(3, 43)) {
      // Subsets drawn from the whole id space: members are usually outside
      // the band, exercising the full-scan fallback as well as the fast
      // certified path.
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<int32_t> subset;
        const size_t size = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
        for (size_t i = 0; i < size; ++i) {
          subset.push_back(static_cast<int32_t>(rng.UniformInt(
              0, static_cast<int64_t>(family.data.size()) - 1)));
        }
        EXPECT_EQ(index->MinRankOfSubset(f, subset),
                  topk::MinRankOfSubset(family.data, f, subset))
            << family.name;
      }
    }
  }
}

TEST(SkybandEquivalenceTest, SampledEvaluatorPrunedMatchesUnpruned) {
  for (const Family& family : Families(300, 3, 47)) {
    const size_t k = 10;
    const auto index = MustBuild(family.data, k);
    // A representative-like subset without paying a solver run: the
    // diagonal's top-k (regret usually <= k — the certified band path)
    // plus two arbitrary ids (usually band outsiders — the fallback path).
    std::vector<int32_t> subset =
        index->TopKSet(topk::LinearFunction(geometry::Vec(3, 1.0)), k);
    subset.push_back(static_cast<int32_t>(family.data.size() / 2));
    subset.push_back(static_cast<int32_t>(family.data.size() - 1));
    SampledRegretOptions options;
    options.num_functions = 400;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      options.threads = threads;
      SampledRegretStats stats;
      Result<int64_t> unpruned =
          SampledRankRegretEstimate(family.data, subset, options);
      Result<int64_t> pruned = SampledRankRegretEstimate(
          family.data, subset, options, {}, index.get(), &stats);
      ASSERT_TRUE(unpruned.ok()) << family.name;
      ASSERT_TRUE(pruned.ok()) << family.name;
      EXPECT_EQ(*unpruned, *pruned)
          << family.name << " threads=" << threads;
      EXPECT_EQ(stats.skyband_scans + stats.full_scan_fallbacks,
                options.num_functions)
          << family.name;
    }
  }
}

TEST(SkybandEquivalenceTest, ExactEvaluatorUnaffectedByEnginePruning) {
  // The exact 2D evaluator tracks ranks beyond k, so it never prunes; pin
  // that the engine's pruned 2D representatives still satisfy it exactly
  // like the legacy ones.
  for (const Family& family : Families(250, 2, 53)) {
    const size_t k = 6;
    const auto index = MustBuild(family.data, k);
    Result<std::vector<int32_t>> unpruned = Solve2dRrr(family.data, k);
    Result<std::vector<int32_t>> pruned =
        Solve2dRrr(family.data, k, {}, {}, nullptr, index.get());
    ASSERT_TRUE(unpruned.ok());
    ASSERT_TRUE(pruned.ok());
    Result<int64_t> regret_unpruned =
        SweepExactRankRegret2D(family.data, *unpruned);
    Result<int64_t> regret_pruned =
        SweepExactRankRegret2D(family.data, *pruned);
    ASSERT_TRUE(regret_unpruned.ok());
    ASSERT_TRUE(regret_pruned.ok());
    EXPECT_EQ(*regret_unpruned, *regret_pruned) << family.name;
  }
}

TEST(SkybandEquivalenceTest, KSetGraphIndexedMatchesLegacy) {
  for (const Family& family : Families(60, 3, 59)) {
    const size_t k = 3;
    const auto index = MustBuild(family.data, k);
    Result<KSetCollection> legacy = EnumerateKSetsGraph(family.data, k);
    Result<KSetCollection> indexed =
        EnumerateKSetsGraph(family.data, k, {}, {}, index.get());
    ASSERT_EQ(legacy.ok(), indexed.ok()) << family.name;
    if (!legacy.ok()) continue;  // degenerate seeds fail both paths alike
    ASSERT_EQ(legacy->size(), indexed->size()) << family.name;
    for (size_t i = 0; i < legacy->size(); ++i) {
      EXPECT_EQ(legacy->sets()[i].ids, indexed->sets()[i].ids)
          << family.name << " set " << i;
    }

    // The exact certificate built on the enumeration must agree too.
    const std::vector<int32_t> subset =
        index->TopKSet(topk::LinearFunction(geometry::Vec(3, 1.0)), k);
    Result<eval::RankRegretCertificate> cert_legacy =
        eval::ExactRankRegretWithinK(family.data, subset, k);
    Result<eval::RankRegretCertificate> cert_indexed =
        eval::ExactRankRegretWithinK(family.data, subset, k, 0, index.get());
    ASSERT_EQ(cert_legacy.ok(), cert_indexed.ok()) << family.name;
    if (cert_legacy.ok()) {
      EXPECT_EQ(cert_legacy->within_k, cert_indexed->within_k) << family.name;
      EXPECT_EQ(cert_legacy->witness_weights, cert_indexed->witness_weights)
          << family.name;
      EXPECT_EQ(cert_legacy->witness_rank, cert_indexed->witness_rank)
          << family.name;
    }
  }
}

TEST(SkybandEquivalenceTest, EngineWithForcedPruningMatchesDirectSolvers) {
  for (const Family& family : Families(300, 3, 61)) {
    EngineOptions options;
    options.prepared.candidate = ForceBuild();
    // Degenerate families (constant column) exhaust any MDRC node budget;
    // keep it small so the exhausted path is compared too, cheaply.
    options.defaults.mdrc.max_nodes = 20000;
    Result<std::shared_ptr<RrrEngine>> engine =
        RrrEngine::Create(family.data, options);
    ASSERT_TRUE(engine.ok()) << family.name;
    const size_t k = 12;

    QueryOptions mdrc_query;
    mdrc_query.algorithm = Algorithm::kMdRc;
    Result<QueryResult> mdrc = (*engine)->Solve(k, mdrc_query);
    MdrcOptions direct_options;
    direct_options.max_nodes = options.defaults.mdrc.max_nodes;
    Result<std::vector<int32_t>> direct =
        SolveMdrc(family.data, k, direct_options);
    ASSERT_EQ(mdrc.status().code(), direct.status().code()) << family.name;
    if (mdrc.ok()) {
      EXPECT_EQ(mdrc->representative, *direct) << family.name;
      EXPECT_GT(mdrc->diagnostics.skyband_size, 0u) << family.name;
      EXPECT_EQ(mdrc->diagnostics.mdrc.skyband_size,
                mdrc->diagnostics.skyband_size)
          << family.name;
    }

    QueryOptions mdrrr_query;
    mdrrr_query.algorithm = Algorithm::kMdRrr;
    Result<QueryResult> mdrrr = (*engine)->Solve(k, mdrrr_query);
    ASSERT_TRUE(mdrrr.ok()) << family.name;
    Result<std::vector<int32_t>> direct_mdrrr =
        SolveMdrrrSampled(family.data, k);
    ASSERT_TRUE(direct_mdrrr.ok()) << family.name;
    EXPECT_EQ(mdrrr->representative, *direct_mdrrr) << family.name;

    Result<EvalReport> eval = (*engine)->Evaluate(mdrrr->representative, k);
    ASSERT_TRUE(eval.ok()) << family.name;
    Result<int64_t> direct_eval = SampledRankRegretEstimate(
        family.data, mdrrr->representative,
        SampledRegretOptions{/*num_functions=*/10000, /*seed=*/23,
                             /*threads=*/0});
    ASSERT_TRUE(direct_eval.ok()) << family.name;
    EXPECT_EQ(eval->rank_regret, *direct_eval) << family.name;
  }
}

TEST(SkybandEquivalenceTest, EngineDeclinedIndexStillSolves) {
  // Default build policy declines tiny datasets; the engine must run
  // unpruned and report skyband_size == 0.
  const data::Dataset ds = data::GenerateUniform(120, 3, 67);
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(ds);
  ASSERT_TRUE(engine.ok());
  QueryOptions query;
  query.algorithm = Algorithm::kMdRc;
  Result<QueryResult> result = (*engine)->Solve(5, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->diagnostics.skyband_size, 0u);
  Result<std::vector<int32_t>> direct = SolveMdrc(ds, 5);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(result->representative, *direct);
}

TEST(SkybandEquivalenceTest, DeclinedBuildRetriesOnceCountsAppear) {
  // Budget so tight that a small-k count always aborts on anti-correlated
  // data, while k = n always fits (its budget is ~n^2). After the large-k
  // build pays for the counts, the small k's stale cost-decline must be
  // retried through the slice path instead of being cached forever.
  PreparedDataset::Options options;
  options.candidate.min_dataset_size = 0;
  options.candidate.max_band_fraction = 1.0;
  options.candidate.precheck_sample = 0;
  options.candidate.budget_slack_per_tuple = 1;
  const size_t n = 1200;
  Result<std::shared_ptr<const PreparedDataset>> prepared =
      PreparedDataset::Create(data::GenerateAnticorrelated(n, 3, 3), options);
  ASSERT_TRUE(prepared.ok());
  Result<std::shared_ptr<const CandidateIndex>> small =
      (*prepared)->SharedCandidateIndex(3, 1);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, nullptr) << "tight budget should decline the count";
  Result<std::shared_ptr<const CandidateIndex>> all =
      (*prepared)->SharedCandidateIndex(n, 1);
  ASSERT_TRUE(all.ok());
  ASSERT_NE(*all, nullptr) << "k = n fits any budget and keeps every row";
  Result<std::shared_ptr<const CandidateIndex>> retried =
      (*prepared)->SharedCandidateIndex(3, 1);
  ASSERT_TRUE(retried.ok());
  ASSERT_NE(*retried, nullptr)
      << "counts from the k = n build must rescue the declined k";
  EXPECT_EQ((*retried)->band_ids(),
            MustBuild((*prepared)->dataset(), 3)->band_ids());
}

TEST(SkybandEquivalenceTest, PreparedDatasetSharesAndSlicesTheIndex) {
  PreparedDataset::Options options;
  options.candidate = ForceBuild();
  Result<std::shared_ptr<const PreparedDataset>> prepared =
      PreparedDataset::Create(data::GenerateCorrelated(400, 3, 71, 0.8),
                              options);
  ASSERT_TRUE(prepared.ok());
  bool hit = false;
  Result<std::shared_ptr<const CandidateIndex>> big =
      (*prepared)->SharedCandidateIndex(20, 1, {}, &hit);
  ASSERT_TRUE(big.ok());
  ASSERT_NE(*big, nullptr);
  EXPECT_FALSE(hit);
  Result<std::shared_ptr<const CandidateIndex>> again =
      (*prepared)->SharedCandidateIndex(20, 1, {}, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(big->get(), again->get()) << "same k must share one index";
  // Smaller k slices the cached counts; the band must equal a direct build.
  Result<std::shared_ptr<const CandidateIndex>> small =
      (*prepared)->SharedCandidateIndex(4, 1, {}, &hit);
  ASSERT_TRUE(small.ok());
  ASSERT_NE(*small, nullptr);
  EXPECT_EQ((*small)->band_ids(),
            MustBuild((*prepared)->dataset(), 4)->band_ids());
}

}  // namespace
}  // namespace core
}  // namespace rrr
