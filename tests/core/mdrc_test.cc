#include "core/mdrc.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "core/candidate_index.h"
#include "core/evaluator.h"
#include "data/generators.h"
#include "geometry/angles.h"
#include "geometry/convex_hull.h"
#include "test_util.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace core {
namespace {

TEST(MdrcTest, RejectsBadArguments) {
  data::Dataset ds = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(SolveMdrc(ds, 0).ok());
  data::Dataset empty;
  EXPECT_FALSE(SolveMdrc(empty, 1).ok());
}

TEST(MdrcTest, OneDimensionalDataReturnsTopItem) {
  data::Dataset ds = testing::MakeDataset({{0.2}, {0.9}, {0.5}});
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(*rep, (std::vector<int32_t>{1}));
}

TEST(MdrcTest, SingleDominatingPointResolvesAtRoot) {
  data::Dataset ds = testing::MakeDataset(
      {{0.9, 0.9}, {0.1, 0.5}, {0.5, 0.1}});
  MdrcStats stats;
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 1, {}, &stats);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(*rep, (std::vector<int32_t>{0}));
  EXPECT_EQ(stats.nodes, 1u);
  EXPECT_EQ(stats.leaves, 1u);
  EXPECT_EQ(stats.depth_cap_leaves, 0u);
}

TEST(MdrcTest, PaperExampleKTwoSmallOutputWithBoundedRegret) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_LE(rep->size(), 3u);
  Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, 4);  // d*k = 2*2 (Theorem 6)
}

class MdrcGuarantee2DTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MdrcGuarantee2DTest, ExactRegretWithinDK) {
  const auto [seed, n, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed));
  MdrcStats stats;
  Result<std::vector<int32_t>> rep =
      SolveMdrc(ds, static_cast<size_t>(k), {}, &stats);
  ASSERT_TRUE(rep.ok());
  if (k >= 2) {
    // For k >= 2 adjacent k-sets share k-1 items, so every sufficiently
    // small cell resolves; the depth cap is unreachable on generic data.
    // k = 1 is different: adjacent 1-sets are disjoint, so cells straddling
    // a winner-change angle never resolve and the cap fires by design
    // (see SolveMdrc docs).
    EXPECT_EQ(stats.depth_cap_leaves, 0u)
        << "non-degenerate data hit the cap";
  }
  Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, 2 * k) << "Theorem 6 (d=2) violated";
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, MdrcGuarantee2DTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(30, 150, 500),
                       ::testing::Values(1, 4, 12)));

class MdrcGuaranteeMDTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MdrcGuaranteeMDTest, SampledRegretWithinDK) {
  const auto [seed, d, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      300, static_cast<size_t>(d), static_cast<uint64_t>(seed));
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, static_cast<size_t>(k));
  ASSERT_TRUE(rep.ok());
  SampledRegretOptions eval_opts;
  eval_opts.num_functions = 3000;
  Result<int64_t> regret = SampledRankRegretEstimate(ds, *rep, eval_opts);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, static_cast<int64_t>(d) * k);
}

// k stays a few percent of n: MDRC's design regime (the paper sweeps
// 0.1%-10% of n). Tiny k at high d explodes the partition; that behaviour
// is pinned separately in NodeBudgetStopsPathologicalSettings.
INSTANTIATE_TEST_SUITE_P(
    RandomInputs, MdrcGuaranteeMDTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(3, 4, 5),
                       ::testing::Values(10, 25)));

TEST(MdrcTest, NodeBudgetStopsPathologicalSettings) {
  // k = 2 in d = 5 forces near-exhaustive partitioning; the budget turns a
  // runaway solve into a clean error.
  const data::Dataset ds = data::GenerateUniform(300, 5, 3);
  MdrcOptions opts;
  opts.max_nodes = 2000;
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 2, opts);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kResourceExhausted);
}

TEST(MdrcTest, StatsAreCoherent) {
  const data::Dataset ds = data::GenerateUniform(400, 3, 11);
  MdrcStats stats;
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 8, {}, &stats);
  ASSERT_TRUE(rep.ok());
  // Binary recursion tree: nodes = 2 * internal + 1 when every node is a
  // leaf or has two children.
  const size_t internal = stats.nodes - stats.leaves - stats.depth_cap_leaves;
  EXPECT_EQ(stats.nodes, 2 * internal + 1);
  EXPECT_GE(stats.cache_hits, 1u) << "corner memoization never fired";
  EXPECT_LE(rep->size(), stats.leaves + stats.depth_cap_leaves);
}

TEST(MdrcTest, DeterministicAcrossRuns) {
  const data::Dataset ds = data::GenerateBnLike(200, 12).ProjectPrefix(4);
  Result<std::vector<int32_t>> a = SolveMdrc(ds, 5);
  Result<std::vector<int32_t>> b = SolveMdrc(ds, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(MdrcTest, KGreaterEqualNReturnsOneItem) {
  const data::Dataset ds = data::GenerateUniform(20, 3, 13);
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 50);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->size(), 1u);
}

TEST(MdrcTest, DuplicateHeavyDataTerminatesViaDepthCapOrLeaves) {
  // All points identical: every corner's top-k is {0, 1, ..., k-1}; the
  // root resolves immediately.
  data::Dataset ds = testing::MakeDataset(
      {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}});
  MdrcStats stats;
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 2, {}, &stats);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->size(), 1u);
  EXPECT_EQ(stats.nodes, 1u);
}

TEST(MdrcTest, LargerKShrinksOrKeepsWorkload) {
  // Section 6: MDRC gets *faster* as k grows because corner top-k sets
  // intersect sooner. Proxy: fewer recursion nodes.
  const data::Dataset ds = data::GenerateDotLike(2000, 14).ProjectPrefix(3);
  MdrcStats small_k, large_k;
  ASSERT_TRUE(SolveMdrc(ds, 5, {}, &small_k).ok());
  ASSERT_TRUE(SolveMdrc(ds, 100, {}, &large_k).ok());
  EXPECT_LE(large_k.nodes, small_k.nodes);
}

TEST(MdrcTest, KOneOutputIn2DIsWithinTheConvexMaxima) {
  // Order-1 representatives can only use tuples that win somewhere; MDRC's
  // k = 1 leaves pick corner winners, so the 2D output must be a subset of
  // the convex maxima.
  const data::Dataset ds = data::GenerateUniform(100, 2, 16);
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 1);
  ASSERT_TRUE(rep.ok());
  Result<std::vector<int32_t>> maxima =
      geometry::ConvexMaxima(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(maxima.ok());
  for (int32_t id : *rep) {
    EXPECT_TRUE(std::binary_search(maxima->begin(), maxima->end(), id));
  }
}

TEST(MdrcTest, LeafReuseOnlyShrinksTheOutput) {
  // Both modes carry the Theorem 6 guarantee; reuse must never be larger.
  const data::Dataset ds = data::GenerateDotLike(800, 15).ProjectPrefix(4);
  const size_t k = 24;
  MdrcOptions with_reuse;
  MdrcOptions without_reuse;
  without_reuse.reuse_chosen = false;
  Result<std::vector<int32_t>> a = SolveMdrc(ds, k, with_reuse);
  Result<std::vector<int32_t>> b = SolveMdrc(ds, k, without_reuse);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a->size(), b->size());
  SampledRegretOptions eval_opts;
  eval_opts.num_functions = 1500;
  EXPECT_LE(*SampledRankRegretEstimate(ds, *a, eval_opts),
            static_cast<int64_t>(4 * k));
  EXPECT_LE(*SampledRankRegretEstimate(ds, *b, eval_opts),
            static_cast<int64_t>(4 * k));
}

TEST(MdrcTest, OutputSizeStaysSmallOnPaperLikeWorkloads) {
  // Section 6 reports MDRC outputs < 40 across all settings.
  for (uint64_t seed : {1u, 2u}) {
    const data::Dataset dot =
        data::GenerateDotLike(3000, seed).ProjectPrefix(3);
    Result<std::vector<int32_t>> rep = SolveMdrc(dot, 30);
    ASSERT_TRUE(rep.ok());
    EXPECT_LE(rep->size(), 40u);
  }
}


// Per-level corner evaluation: every thread count resolves the same
// distinct corners of each depth, so the representative and the number of
// corner resolutions (hits + evaluations) cannot depend on scheduling.
TEST(MdrcTest, ThreadCountsAgreeOnRepresentativeAndCornerCount) {
  const data::Dataset ds = data::GenerateBnLike(3000, 4).ProjectPrefix(4);
  for (size_t k : {15u, 60u}) {
    MdrcOptions serial;
    serial.threads = 1;
    MdrcStats s1;
    Result<std::vector<int32_t>> want = SolveMdrc(ds, k, serial, &s1);
    ASSERT_TRUE(want.ok());
    for (size_t threads : {2u, 4u, 8u}) {
      MdrcOptions opts;
      opts.threads = threads;
      MdrcStats st;
      Result<std::vector<int32_t>> got = SolveMdrc(ds, k, opts, &st);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, *want) << "k=" << k << " threads=" << threads;
      EXPECT_EQ(st.corner_evals, s1.corner_evals) << "threads=" << threads;
      EXPECT_EQ(st.corner_evals + st.cache_hits,
                s1.corner_evals + s1.cache_hits)
          << "threads=" << threads;
      EXPECT_EQ(st.nodes, s1.nodes);
    }
  }
}

TEST(MdrcTest, FullCacheAgreesAcrossThreadCounts) {
  // max_entries = 1 leaves one slot per shard, so almost every corner is
  // evaluated uncached; the level table must still resolve each distinct
  // corner of a depth exactly once, whoever wins the few slots.
  const data::Dataset ds = data::GenerateUniform(1500, 4, 8);
  const size_t k = 25;
  MdrcOptions reference_opts;
  reference_opts.threads = 1;
  MdrcStats reference;
  Result<std::vector<int32_t>> want =
      SolveMdrc(ds, k, reference_opts, &reference);
  ASSERT_TRUE(want.ok());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MdrcOptions opts;
    opts.threads = threads;
    CornerTopKCache full(ds, 1);
    MdrcStats shared_stats;
    Result<std::vector<int32_t>> shared =
        SolveMdrc(ds, k, opts, &shared_stats, {}, &full);
    ASSERT_TRUE(shared.ok());
    EXPECT_EQ(*shared, *want) << "threads=" << threads;
    EXPECT_EQ(shared_stats.corner_evals + shared_stats.cache_hits,
              reference.corner_evals + reference.cache_hits)
        << "threads=" << threads;
    EXPECT_LE(full.entries(), 32u);  // one slot in each of the 32 shards

    opts.max_cache_entries = 1;
    MdrcStats private_stats;
    Result<std::vector<int32_t>> own = SolveMdrc(ds, k, opts, &private_stats);
    ASSERT_TRUE(own.ok());
    EXPECT_EQ(*own, *want) << "threads=" << threads;
    EXPECT_EQ(private_stats.corner_evals + private_stats.cache_hits,
              reference.corner_evals + reference.cache_hits)
        << "threads=" << threads;
  }
}

TEST(MdrcTest, NodeBudgetExhaustsAtEveryThreadCount) {
  const data::Dataset ds = data::GenerateUniform(300, 5, 3);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MdrcOptions opts;
    opts.threads = threads;
    opts.max_nodes = 2000;
    MdrcStats stats;
    Result<std::vector<int32_t>> rep = SolveMdrc(ds, 2, opts, &stats);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kResourceExhausted);
    // The check runs before a level's corners, so no level past the
    // budget was evaluated.
    EXPECT_LE(stats.nodes, opts.max_nodes) << "threads=" << threads;
  }
}

TEST(MdrcTest, CancelMidLevelReturnsNoPartialResult) {
  // A tree dozens of levels deep; the canceller fires once the shared
  // cache shows corners past the root level being resolved.
  const data::Dataset ds = data::GenerateBnLike(20000, 1).ProjectPrefix(5);
  for (size_t threads : {1u, 4u}) {
    CornerTopKCache cache(ds, size_t{1} << 20);
    CancellationSource source;
    ExecContext ctx;
    ctx.cancel = source.token();
    std::thread canceller([&] {
      while (cache.entries() <= 40) std::this_thread::yield();
      source.RequestCancel();
    });
    MdrcOptions opts;
    opts.threads = threads;
    MdrcStats stats;
    Result<std::vector<int32_t>> rep =
        SolveMdrc(ds, 20, opts, &stats, ctx, &cache);
    canceller.join();
    ASSERT_FALSE(rep.ok()) << "threads=" << threads;
    EXPECT_EQ(rep.status().code(), StatusCode::kCancelled);
  }
}

TEST(MdrcTest, ExpiredDeadlineMidSolveReturnsDeadlineExceeded) {
  const data::Dataset ds = data::GenerateBnLike(20000, 1).ProjectPrefix(5);
  ExecContext ctx;
  ctx.deadline = Deadline::After(0.005);
  MdrcOptions opts;
  opts.threads = 4;
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, 20, opts, nullptr, ctx);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kDeadlineExceeded);
}

// --- k-nested corner reuse ------------------------------------------------
//
// A shared CornerTopKCache keys corners by their angles alone and keeps each
// corner's ranked top-K, so any k <= K is served as the sorted k-prefix.
// These tests pin that reuse against private-cache solves: same
// representative and tree at every k, in every k order, at every thread
// count, whichever scan (band or full mirror) filled an entry.

constexpr size_t kNestedRows = 20000;

/// Dual-search probe order on n = 20000: halving down, then back up.
const std::vector<size_t> kDualZigzag = {10000, 5000, 2500, 1250, 625,
                                         937,   1093, 1187, 1186};
const std::vector<size_t> kDescending = {1250, 625, 300, 150};
const std::vector<size_t> kAscending = {150, 300, 625, 1250};

struct NestedFamily {
  const char* name;
  data::Dataset data;
};

std::vector<NestedFamily> NestedFamilies() {
  std::vector<NestedFamily> families;
  families.push_back({"uniform", data::GenerateUniform(kNestedRows, 4, 5)});
  families.push_back(
      {"bn-like", data::GenerateBnLike(kNestedRows, 3).ProjectPrefix(4)});
  // Clamp01 leaves exact 0/1 cells: score ties under the axis corners.
  families.push_back(
      {"anticorrelated", data::GenerateAnticorrelated(kNestedRows, 4, 7)});
  return families;
}

/// A private-cache (cold) serial solve: the reference every shared-cache
/// solve must match.
struct ColdSolve {
  std::vector<int32_t> rep;
  MdrcStats stats;
};

ColdSolve SolveCold(const data::Dataset& ds, size_t k) {
  MdrcOptions serial;
  serial.threads = 1;
  ColdSolve cold;
  Result<std::vector<int32_t>> rep = SolveMdrc(ds, k, serial, &cold.stats);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  if (rep.ok()) cold.rep = *rep;
  return cold;
}

TEST(MdrcNestedReuseTest, SharedCacheMatchesColdSolvesInEveryKOrder) {
  for (const NestedFamily& family : NestedFamilies()) {
    std::map<size_t, ColdSolve> cold;
    for (const std::vector<size_t>* order : {&kDescending, &kDualZigzag}) {
      for (size_t k : *order) cold[k] = SolveCold(family.data, k);
    }
    for (const std::vector<size_t>* order :
         {&kDescending, &kAscending, &kDualZigzag}) {
      for (size_t threads : {1u, 2u, 4u}) {
        MdrcOptions opts;
        opts.threads = threads;
        CornerTopKCache cache(family.data, size_t{1} << 20);
        const ColdSolve* larger = nullptr;  // previous k of a descending run
        for (size_t k : *order) {
          MdrcStats stats;
          Result<std::vector<int32_t>> rep =
              SolveMdrc(family.data, k, opts, &stats, {}, &cache);
          ASSERT_TRUE(rep.ok()) << rep.status().ToString();
          const ColdSolve& want = cold[k];
          EXPECT_EQ(*rep, want.rep)
              << family.name << " k=" << k << " threads=" << threads;
          EXPECT_EQ(stats.nodes, want.stats.nodes) << family.name << " k=" << k;
          EXPECT_EQ(stats.corner_evals + stats.cache_hits,
                    want.stats.corner_evals + want.stats.cache_hits)
              << family.name << " k=" << k << " threads=" << threads;
          // Down a ladder the cache holds exactly the previous tree's
          // corners, a subset of this one's (see the next test).
          if (order == &kDescending && larger != nullptr) {
            EXPECT_EQ(stats.corner_evals,
                      want.stats.corner_evals - larger->stats.corner_evals)
                << family.name << " k=" << k << " threads=" << threads;
          }
          larger = &want;
        }
      }
    }
  }
}

// The partition at a larger K is a subtree of the one at k <= K, so a cache
// warmed by Solve(K) holds every corner of that subtree at a K that serves
// k: Solve(k) evaluates exactly the corners the K-tree lacks.
TEST(MdrcNestedReuseTest, CornerEvalsAfterALargerKAreTheColdDifference) {
  for (const NestedFamily& family : NestedFamilies()) {
    for (std::pair<size_t, size_t> pair :
         {std::make_pair(size_t{2500}, size_t{625}),
          std::make_pair(size_t{1187}, size_t{1186})}) {
      const size_t big = pair.first;
      const size_t small = pair.second;
      const ColdSolve cold_big = SolveCold(family.data, big);
      const ColdSolve cold_small = SolveCold(family.data, small);
      for (size_t threads : {1u, 4u}) {
        MdrcOptions opts;
        opts.threads = threads;
        CornerTopKCache cache(family.data, size_t{1} << 20);
        ASSERT_TRUE(SolveMdrc(family.data, big, opts, nullptr, {}, &cache).ok());
        MdrcStats stats;
        Result<std::vector<int32_t>> rep =
            SolveMdrc(family.data, small, opts, &stats, {}, &cache);
        ASSERT_TRUE(rep.ok());
        EXPECT_EQ(*rep, cold_small.rep) << family.name << " k=" << small;
        EXPECT_EQ(stats.corner_evals, cold_small.stats.corner_evals -
                                          cold_big.stats.corner_evals)
            << family.name << " K=" << big << " k=" << small
            << " threads=" << threads;
      }
    }
  }
}

TEST(MdrcNestedReuseTest, BandAndFullScanEntriesServeEachOther) {
  const data::Dataset ds = data::GenerateBnLike(kNestedRows, 3).ProjectPrefix(4);
  CandidateIndexOptions force;
  force.min_dataset_size = 0;
  force.precheck_sample = 0;
  force.max_band_fraction = 1.0;
  force.budget_slack_per_tuple = 0;
  const size_t big = 1250;
  const size_t small = 625;
  auto band = [&](size_t k) {
    Result<CandidateIndex::Outcome> outcome =
        CandidateIndex::Create(ds, k, force);
    EXPECT_TRUE(outcome.ok());
    EXPECT_NE(outcome->index, nullptr) << outcome->decline_reason;
    return outcome->index;
  };
  const std::shared_ptr<const CandidateIndex> band_big = band(big);
  const std::shared_ptr<const CandidateIndex> band_small = band(small);
  const ColdSolve cold_big = SolveCold(ds, big);
  const ColdSolve cold_small = SolveCold(ds, small);
  struct Route {
    const char* name;
    const CandidateIndex* fill;   // fills the cache at `big`
    const CandidateIndex* serve;  // solves `small` against it
  };
  for (const Route& route :
       {Route{"band fills, full scan serves", band_big.get(), nullptr},
        Route{"full scan fills, band serves", nullptr, band_small.get()}}) {
    for (size_t threads : {1u, 4u}) {
      MdrcOptions opts;
      opts.threads = threads;
      CornerTopKCache cache(ds, size_t{1} << 20);
      MdrcStats fill_stats;
      Result<std::vector<int32_t>> filled =
          SolveMdrc(ds, big, opts, &fill_stats, {}, &cache, route.fill);
      ASSERT_TRUE(filled.ok());
      EXPECT_EQ(*filled, cold_big.rep) << route.name;
      MdrcStats stats;
      Result<std::vector<int32_t>> rep =
          SolveMdrc(ds, small, opts, &stats, {}, &cache, route.serve);
      ASSERT_TRUE(rep.ok());
      EXPECT_EQ(*rep, cold_small.rep) << route.name << " threads=" << threads;
      EXPECT_EQ(stats.nodes, cold_small.stats.nodes) << route.name;
      EXPECT_EQ(stats.corner_evals,
                cold_small.stats.corner_evals - cold_big.stats.corner_evals)
          << route.name << " threads=" << threads;
      EXPECT_GT(stats.cache_hits, 0u) << route.name;
    }
  }
}

// One ranked entry per corner: every k <= K is its sorted prefix, equal to
// the brute-force top-k set even among exact duplicates (the id tie-break).
// n = 2100 sends k <= 7 down the sorting path and larger k down the bitmap.
TEST(MdrcNestedReuseTest, RankedEntryServesEveryPrefixExactly) {
  std::vector<std::vector<double>> rows;
  const data::Dataset base = data::GenerateUniform(700, 3, 17);
  for (size_t copy = 0; copy < 3; ++copy) {
    for (size_t i = 0; i < base.size(); ++i) {
      const double* row = base.row(i);
      rows.emplace_back(row, row + base.dims());
    }
  }
  const data::Dataset ds = testing::MakeDataset(rows);
  const data::ColumnBlocks blocks = testing::MustBuildBlocks(ds);
  CornerTopKCache cache(ds, 64);
  const size_t big = 120;
  const std::vector<geometry::Vec> corners = {{0.0, 0.0},
                                              {geometry::kHalfPi, 0.0},
                                              {0.3, 1.1},
                                              {geometry::kHalfPi / 2, 0.0},
                                              {geometry::kHalfPi,
                                               geometry::kHalfPi}};
  for (const geometry::Vec& angles : corners) {
    const topk::LinearFunction f = topk::LinearFunction::FromAngles(angles);
    CornerTopKCache::Counters counters;
    EXPECT_EQ(cache.TopKAt(big, angles, &counters, nullptr, blocks),
              testing::BruteTopKSet(ds, f, big));
    for (size_t k = 1; k <= big; ++k) {
      EXPECT_EQ(cache.TopKAt(k, angles, &counters, nullptr, blocks),
                testing::BruteTopKSet(ds, f, k))
          << "k=" << k;
    }
    EXPECT_EQ(counters.evals.load(), 1u);
    EXPECT_EQ(counters.hits.load(), big);
  }
  EXPECT_EQ(cache.entries(), corners.size());

  // A larger k evaluates once and takes over the slot; the map does not
  // grow, and the new list serves the old k's prefixes.
  const geometry::Vec& angles = corners[2];
  const topk::LinearFunction f = topk::LinearFunction::FromAngles(angles);
  CornerTopKCache::Counters counters;
  EXPECT_EQ(cache.TopKAt(big + 60, angles, &counters, nullptr, blocks),
            testing::BruteTopKSet(ds, f, big + 60));
  EXPECT_EQ(cache.TopKAt(7, angles, &counters, nullptr, blocks),
            testing::BruteTopKSet(ds, f, 7));
  EXPECT_EQ(counters.evals.load(), 1u);
  EXPECT_EQ(counters.hits.load(), 1u);
  EXPECT_EQ(cache.entries(), corners.size());
}

// --- Seeded, dense-set depths vs an unfloored reference ---------------------
//
// SolveMdrc resolves each depth with memo lookups on the calling thread,
// floors for the corners the last split created, bitmap corner sets for
// k >= n / 64 and sorted lists below. ReferenceMdrc restates Algorithm 5
// without any of that: a serial level-by-level expansion over a plain map of
// ranked lists (a hit is an entry at some K >= k, served as its k-prefix), an
// unfloored TopKScan per miss, sorted-set intersections, the same leaf
// replay. Over one shared cache, a SOLVE ladder and a dual search's probes
// must match it — representative and every MdrcStats field.

/// Ranked corner lists keyed by corner angles, shared across reference
/// solves like a CornerTopKCache.
using ReferenceMemo = std::map<geometry::Vec, std::vector<int32_t>>;

struct ReferenceSolve {
  std::vector<int32_t> rep;
  MdrcStats stats;
};

ReferenceSolve ReferenceMdrc(const data::Dataset& ds,
                             const data::ColumnBlocks& blocks, size_t k,
                             ReferenceMemo* memo) {
  struct Cell {
    std::vector<std::pair<double, double>> box;
    size_t level = 0;
    std::string path;
  };
  const size_t angle_dims = ds.dims() - 1;
  const size_t max_level = MdrcOptions{}.max_splits_per_dim * angle_dims;
  const size_t kk = std::min(k, ds.size());
  ReferenceSolve out;
  MdrcStats& stats = out.stats;
  std::vector<std::pair<std::string, std::vector<int32_t>>> leaves;
  std::vector<Cell> frontier(1);
  frontier[0].box.assign(angle_dims, {0.0, geometry::kHalfPi});
  while (!frontier.empty()) {
    stats.nodes += frontier.size();
    stats.max_depth = frontier.front().level;
    std::map<geometry::Vec, std::vector<int32_t>> depth_sets;
    std::vector<Cell> next;
    for (Cell& cell : frontier) {
      std::vector<int32_t> common;
      int32_t all_lows_front = -1;
      for (size_t mask = 0; mask < (size_t{1} << angle_dims); ++mask) {
        geometry::Vec angles(angle_dims);
        for (size_t j = 0; j < angle_dims; ++j) {
          angles[j] = (mask >> j & 1) ? cell.box[j].second : cell.box[j].first;
        }
        auto it = depth_sets.find(angles);
        if (it == depth_sets.end()) {
          auto entry = memo->find(angles);
          if (entry != memo->end() && entry->second.size() >= kk) {
            ++stats.cache_hits;
          } else {
            ++stats.corner_evals;
            entry = memo->insert_or_assign(
                             angles,
                             topk::TopKScan(
                                 blocks,
                                 topk::LinearFunction::FromAngles(angles),
                                 kk))
                        .first;
          }
          std::vector<int32_t> set(entry->second.begin(),
                                   entry->second.begin() +
                                       static_cast<std::ptrdiff_t>(kk));
          std::sort(set.begin(), set.end());
          it = depth_sets.emplace(angles, std::move(set)).first;
        }
        if (mask == 0) {
          all_lows_front = it->second.front();
          common = it->second;
        } else {
          std::vector<int32_t> both;
          std::set_intersection(common.begin(), common.end(),
                                it->second.begin(), it->second.end(),
                                std::back_inserter(both));
          common.swap(both);
        }
      }
      if (!common.empty()) {
        ++stats.leaves;
        leaves.emplace_back(cell.path, std::move(common));
      } else if (cell.level >= max_level) {
        ++stats.depth_cap_leaves;
        leaves.emplace_back(cell.path, std::vector<int32_t>{all_lows_front});
      } else {
        const size_t dim = cell.level % angle_dims;
        const double mid = 0.5 * (cell.box[dim].first + cell.box[dim].second);
        Cell upper = cell;
        upper.level = cell.level + 1;
        upper.box[dim].first = mid;
        upper.path.push_back('0');
        Cell lower = cell;
        lower.level = upper.level;
        lower.box[dim].second = mid;
        lower.path.push_back('1');
        next.push_back(std::move(upper));
        next.push_back(std::move(lower));
      }
    }
    frontier = std::move(next);
  }
  // Leaf replay in path order: reuse a chosen member, else the smallest.
  std::sort(leaves.begin(), leaves.end());
  std::set<int32_t> chosen;
  for (const auto& leaf : leaves) {
    const std::vector<int32_t>& ids = leaf.second;
    if (std::none_of(ids.begin(), ids.end(),
                     [&](int32_t id) { return chosen.count(id) != 0; })) {
      chosen.insert(ids.front());
    }
  }
  out.rep.assign(chosen.begin(), chosen.end());
  return out;
}

void ExpectSameStats(const MdrcStats& got, const MdrcStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(got.leaves, want.leaves) << where;
  EXPECT_EQ(got.corner_evals, want.corner_evals) << where;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << where;
  EXPECT_EQ(got.depth_cap_leaves, want.depth_cap_leaves) << where;
  EXPECT_EQ(got.max_depth, want.max_depth) << where;
  EXPECT_EQ(got.skyband_size, want.skyband_size) << where;
}

TEST(MdrcSeededDepthTest, SolveAndDualOverOneCacheMatchTheReference) {
  // A SOLVE ladder straddling n / 64 = 312 (bitmaps at 600, sorted lists
  // below), then a dual search's probes: the far larger k's of the zigzag
  // take fresh, floored scans, the way back down is served by prefixes.
  std::vector<size_t> sequence = {600, 300, 150};
  sequence.insert(sequence.end(), kDualZigzag.begin(), kDualZigzag.end());
  std::vector<NestedFamily> families = NestedFamilies();
  // Coarse anticorrelated values: exact score ties everywhere, so floors
  // often equal the k-th score and the id order decides the boundary.
  const data::Dataset anti = data::GenerateAnticorrelated(kNestedRows, 4, 11);
  std::vector<std::vector<double>> coarse;
  for (size_t i = 0; i < anti.size(); ++i) {
    std::vector<double> row(anti.row(i), anti.row(i) + anti.dims());
    for (double& v : row) v = std::round(v * 16.0) / 16.0;
    coarse.push_back(std::move(row));
  }
  families.push_back({"tie-heavy anticorrelated", testing::MakeDataset(coarse)});
  for (const NestedFamily& family : families) {
    const data::ColumnBlocks blocks = testing::MustBuildBlocks(family.data);
    ReferenceMemo memo;
    std::vector<ReferenceSolve> want;
    for (size_t k : sequence) {
      want.push_back(ReferenceMdrc(family.data, blocks, k, &memo));
    }
    for (size_t threads : {1u, 4u}) {
      MdrcOptions opts;
      opts.threads = threads;
      CornerTopKCache cache(family.data, size_t{1} << 20);
      for (size_t i = 0; i < sequence.size(); ++i) {
        const std::string where = std::string(family.name) +
                                  " k=" + std::to_string(sequence[i]) +
                                  " threads=" + std::to_string(threads);
        MdrcStats stats;
        Result<std::vector<int32_t>> rep = SolveMdrc(
            family.data, sequence[i], opts, &stats, {}, &cache, nullptr,
            &blocks);
        ASSERT_TRUE(rep.ok()) << where << ": " << rep.status().ToString();
        EXPECT_EQ(*rep, want[i].rep) << where;
        ExpectSameStats(stats, want[i].stats, where);
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace rrr
