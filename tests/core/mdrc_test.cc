#include "core/mdrc.h"

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "data/generators.h"
#include "eval/rank_regret.h"
#include "geometry/convex_hull.h"
#include "test_util.h"

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
  Result<int64_t> regret = eval::ExactRankRegret2D(ds, *rep);
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
  Result<int64_t> regret = eval::ExactRankRegret2D(ds, *rep);
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
  eval::SampledRankRegretOptions eval_opts;
  eval_opts.num_functions = 3000;
  Result<int64_t> regret = eval::SampledRankRegret(ds, *rep, eval_opts);
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
  eval::SampledRankRegretOptions eval_opts;
  eval_opts.num_functions = 1500;
  EXPECT_LE(*eval::SampledRankRegret(ds, *a, eval_opts),
            static_cast<int64_t>(4 * k));
  EXPECT_LE(*eval::SampledRankRegret(ds, *b, eval_opts),
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

}  // namespace
}  // namespace core
}  // namespace rrr
