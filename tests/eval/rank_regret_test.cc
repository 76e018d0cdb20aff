#include "eval/rank_regret.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "data/generators.h"
#include "test_util.h"
#include "topk/scoring.h"

namespace rrr {
namespace eval {
namespace {

TEST(ExactRankRegret2DTest, RejectsBadArguments) {
  const data::Dataset ds3 = data::GenerateUniform(10, 3, 1);
  EXPECT_FALSE(core::SweepExactRankRegret2D(ds3, {0}).ok());
  const data::Dataset ds = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(core::SweepExactRankRegret2D(ds, {}).ok());
  EXPECT_FALSE(core::SweepExactRankRegret2D(ds, {100}).ok());
  EXPECT_FALSE(core::SweepExactRankRegret2D(ds, {-1}).ok());
}

TEST(ExactRankRegret2DTest, FullDatasetHasRegretOne) {
  const data::Dataset ds = data::GenerateUniform(40, 2, 2);
  std::vector<int32_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  Result<int64_t> regret = core::SweepExactRankRegret2D(ds, all);
  ASSERT_TRUE(regret.ok());
  EXPECT_EQ(*regret, 1);
}

TEST(ExactRankRegret2DTest, DominatingSingletonHasRegretOne) {
  data::Dataset ds = testing::MakeDataset(
      {{0.9, 0.9}, {0.1, 0.2}, {0.3, 0.1}});
  Result<int64_t> regret = core::SweepExactRankRegret2D(ds, {0});
  ASSERT_TRUE(regret.ok());
  EXPECT_EQ(*regret, 1);
}

TEST(ExactRankRegret2DTest, WorstSingletonHasRegretN) {
  // A point dominated by all others always ranks last.
  data::Dataset ds = testing::MakeDataset(
      {{0.9, 0.9}, {0.8, 0.7}, {0.1, 0.1}});
  Result<int64_t> regret = core::SweepExactRankRegret2D(ds, {2});
  ASSERT_TRUE(regret.ok());
  EXPECT_EQ(*regret, 3);
}

TEST(ExactRankRegret2DTest, PaperExampleKnownSubsets) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  // {t7, t3}: t7 covers the x-heavy half, t3 the rest, never worse than 2.
  Result<int64_t> regret = core::SweepExactRankRegret2D(ds, {2, 6});
  ASSERT_TRUE(regret.ok());
  EXPECT_EQ(*regret, 2);
  // {t7} alone: at theta = pi/2 (f = x2), t7 ranks 5th.
  Result<int64_t> alone = core::SweepExactRankRegret2D(ds, {6});
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(*alone, 5);
}

class ExactVsGridTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExactVsGridTest, SweepMatchesDenseGridEvaluation) {
  const auto [seed, n] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed) + 50);
  // A few fixed subsets of different sizes.
  const std::vector<std::vector<int32_t>> subsets = {
      {0},
      {0, static_cast<int32_t>(n / 2)},
      {1, static_cast<int32_t>(n / 3), static_cast<int32_t>(n - 1)}};
  for (const auto& subset : subsets) {
    Result<int64_t> exact = core::SweepExactRankRegret2D(ds, subset);
    ASSERT_TRUE(exact.ok());
    // Dense grid lower bound: exact must dominate every sampled angle and
    // be achieved near some angle.
    int64_t grid_worst = 1;
    for (double theta : testing::AngleGrid(4000)) {
      topk::LinearFunction f({std::cos(theta), std::sin(theta)});
      grid_worst =
          std::max(grid_worst, testing::BruteMinRankOfSubset(ds, f, subset));
    }
    EXPECT_GE(*exact, grid_worst);
    // The grid is dense enough relative to event spacing for small n that
    // it should actually attain the exact value.
    EXPECT_EQ(*exact, grid_worst) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ExactVsGridTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(10, 25)));

TEST(SampledRankRegretTest, NeverExceedsExactIn2D) {
  const data::Dataset ds = data::GenerateUniform(60, 2, 3);
  const std::vector<int32_t> subset = {3, 30, 55};
  Result<int64_t> exact = core::SweepExactRankRegret2D(ds, subset);
  core::SampledRegretOptions opts;
  opts.num_functions = 3000;
  Result<int64_t> sampled = core::SampledRankRegretEstimate(ds, subset, opts);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sampled.ok());
  EXPECT_LE(*sampled, *exact);
  EXPECT_GE(*sampled, 1);
}

TEST(SampledRankRegretTest, DeterministicUnderSeed) {
  const data::Dataset ds = data::GenerateUniform(50, 4, 4);
  core::SampledRegretOptions opts;
  opts.seed = 5;
  opts.num_functions = 500;
  Result<int64_t> a = core::SampledRankRegretEstimate(ds, {1, 2}, opts);
  Result<int64_t> b = core::SampledRankRegretEstimate(ds, {1, 2}, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SampledRankRegretTest, MoreFunctionsOnlyIncreaseTheBound) {
  const data::Dataset ds = data::GenerateUniform(100, 3, 5);
  const std::vector<int32_t> subset = {10, 20};
  core::SampledRegretOptions few;
  few.num_functions = 100;
  core::SampledRegretOptions many;
  many.num_functions = 5000;
  Result<int64_t> a = core::SampledRankRegretEstimate(ds, subset, few);
  Result<int64_t> b = core::SampledRankRegretEstimate(ds, subset, many);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(*a, *b);  // the 100 functions are a prefix of the 5000
}

TEST(ExactRankRegretWithinKTest, AgreesWithSweepEvaluatorIn2D) {
  const data::Dataset ds = data::GenerateUniform(16, 2, 31);
  for (size_t k : {1u, 2u, 4u}) {
    const std::vector<std::vector<int32_t>> subsets = {
        {0}, {2, 9}, {1, 7, 13}};
    for (const std::vector<int32_t>& subset : subsets) {
      Result<int64_t> exact = core::SweepExactRankRegret2D(ds, subset);
      Result<RankRegretCertificate> cert =
          ExactRankRegretWithinK(ds, subset, k);
      ASSERT_TRUE(exact.ok());
      ASSERT_TRUE(cert.ok());
      EXPECT_EQ(cert->within_k, *exact <= static_cast<int64_t>(k))
          << "k=" << k;
    }
  }
}

TEST(ExactRankRegretWithinKTest, WitnessActuallyFails) {
  const data::Dataset ds = data::GenerateUniform(14, 3, 32);
  // A deliberately bad subset: one middling item.
  const std::vector<int32_t> subset = {7};
  Result<RankRegretCertificate> cert = ExactRankRegretWithinK(ds, subset, 2);
  ASSERT_TRUE(cert.ok());
  if (!cert->within_k) {
    ASSERT_EQ(cert->witness_weights.size(), 3u);
    // The witness function's best subset rank must genuinely exceed k.
    EXPECT_GT(cert->witness_rank, 2);
    topk::LinearFunction f(cert->witness_weights);
    EXPECT_EQ(testing::BruteMinRankOfSubset(ds, f, subset), cert->witness_rank);
  }
}

TEST(ExactRankRegretWithinKTest, FullSubsetAlwaysWithinK) {
  const data::Dataset ds = data::GenerateUniform(12, 3, 33);
  std::vector<int32_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  Result<RankRegretCertificate> cert = ExactRankRegretWithinK(ds, all, 1);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->within_k);
}

TEST(ExactRankRegretWithinKTest, KGreaterEqualNIsTriviallyTrue) {
  const data::Dataset ds = data::GenerateUniform(8, 3, 34);
  Result<RankRegretCertificate> cert = ExactRankRegretWithinK(ds, {0}, 8);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->within_k);
}

TEST(ExactRankRegretWithinKTest, CrossChecksSampledEstimator) {
  // If the sampled estimator reports regret > k, the exact certificate
  // must refute within-k too (the converse may not hold: sampling misses).
  const data::Dataset ds = data::GenerateUniform(15, 3, 35);
  const std::vector<int32_t> subset = {3, 11};
  const size_t k = 3;
  core::SampledRegretOptions opts;
  opts.num_functions = 3000;
  Result<int64_t> sampled = core::SampledRankRegretEstimate(ds, subset, opts);
  Result<RankRegretCertificate> cert =
      ExactRankRegretWithinK(ds, subset, k);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(cert.ok());
  if (*sampled > static_cast<int64_t>(k)) {
    EXPECT_FALSE(cert->within_k);
  }
}

TEST(ExactRankRegretWithinKTest, RejectsBadArguments) {
  const data::Dataset ds = data::GenerateUniform(10, 3, 36);
  EXPECT_FALSE(ExactRankRegretWithinK(ds, {}, 2).ok());
  EXPECT_FALSE(ExactRankRegretWithinK(ds, {0}, 0).ok());
  EXPECT_FALSE(ExactRankRegretWithinK(ds, {77}, 2).ok());
}

TEST(SampledRankRegretTest, RejectsBadArguments) {
  const data::Dataset ds = data::GenerateUniform(10, 3, 6);
  EXPECT_FALSE(core::SampledRankRegretEstimate(ds, {}).ok());
  EXPECT_FALSE(core::SampledRankRegretEstimate(ds, {42}).ok());
  data::Dataset empty;
  EXPECT_FALSE(core::SampledRankRegretEstimate(empty, {0}).ok());
}

}  // namespace
}  // namespace eval
}  // namespace rrr
