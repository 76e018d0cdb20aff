#include "core/rrr2d.h"

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "data/generators.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

TEST(Rrr2dTest, RejectsBadArguments) {
  data::Dataset ds3d = data::GenerateUniform(10, 3, 1);
  EXPECT_FALSE(Solve2dRrr(ds3d, 2).ok());
  data::Dataset ds2d = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(Solve2dRrr(ds2d, 0).ok());
  data::Dataset empty;
  EXPECT_FALSE(Solve2dRrr(empty, 1).ok());
}

TEST(Rrr2dTest, PaperExampleKTwo) {
  // Section 4 walks Algorithm 2 on Figure 1 with k = 2 and obtains a
  // 2-element representative ({t3, t1} with the paper's greedy). Our
  // sweep cover must match that optimal size and the exact rank-regret
  // must satisfy the 2k guarantee.
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<int32_t>> rep = Solve2dRrr(ds, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->size(), 2u);
  Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, 4);  // 2k bound (Theorem 4)
}

TEST(Rrr2dTest, PaperGreedyStrategyAlsoSolvesTheExample) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Rrr2dOptions opts;
  opts.cover = hitting::CoverStrategy::kGreedyMaxCoverage;
  Result<std::vector<int32_t>> rep = Solve2dRrr(ds, 2, opts);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->size(), 2u);
  // The paper's walk-through returns {t3, t1} = 0-based {0, 2}.
  EXPECT_EQ(*rep, (std::vector<int32_t>{0, 2}));
}

TEST(Rrr2dTest, KOneReturnsSingleItemCoveringConvexHullBand) {
  // k = 1: the representative must give every function a top-1 item; with
  // an undominated single point that's 1 item.
  data::Dataset ds = testing::MakeDataset(
      {{0.9, 0.9}, {0.5, 0.1}, {0.1, 0.5}});
  Result<std::vector<int32_t>> rep = Solve2dRrr(ds, 1);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(*rep, (std::vector<int32_t>{0}));
}

TEST(Rrr2dTest, KEqualNReturnsOneItem) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<int32_t>> rep = Solve2dRrr(ds, 7);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->size(), 1u);
}

class Rrr2dGuaranteesTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Rrr2dGuaranteesTest, RegretWithinTwoKAndIdsValid) {
  const auto [seed, n, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed));
  Result<std::vector<int32_t>> rep =
      Solve2dRrr(ds, static_cast<size_t>(k));
  ASSERT_TRUE(rep.ok());
  ASSERT_FALSE(rep->empty());
  for (int32_t id : *rep) {
    EXPECT_GE(id, 0);
    EXPECT_LT(static_cast<size_t>(id), ds.size());
  }
  Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, 2 * k) << "Theorem 4 violated";
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, Rrr2dGuaranteesTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(20, 100, 400),
                       ::testing::Values(1, 3, 10)));

class Rrr2dOptimalityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Rrr2dOptimalityTest, OutputSizeAtMostBruteForceOptimal) {
  // Theorem 3: |2DRRR| <= optimal RRR size (the output may have regret up
  // to 2k, which is how it can even undercut the k-regret optimum).
  const auto [seed, k] = GetParam();
  const data::Dataset ds =
      data::GenerateUniform(14, 2, static_cast<uint64_t>(seed));
  Result<std::vector<int32_t>> rep =
      Solve2dRrr(ds, static_cast<size_t>(k));
  ASSERT_TRUE(rep.ok());
  const int64_t optimal =
      testing::BruteForceOptimalRrrSize2D(ds, static_cast<size_t>(k));
  EXPECT_LE(static_cast<int64_t>(rep->size()), optimal);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, Rrr2dOptimalityTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1, 2, 4)));

TEST(Rrr2dTest, LargerKNeverNeedsMoreItems) {
  const data::Dataset ds = data::GenerateUniform(300, 2, 9);
  size_t prev = SIZE_MAX;
  for (size_t k : {1, 2, 4, 8, 16, 32}) {
    Result<std::vector<int32_t>> rep = Solve2dRrr(ds, k);
    ASSERT_TRUE(rep.ok());
    EXPECT_LE(rep->size(), prev);
    prev = rep->size();
  }
}

TEST(Rrr2dTest, AnticorrelatedNeedsMoreThanCorrelated) {
  const size_t n = 500, k = 5;
  Result<std::vector<int32_t>> anti =
      Solve2dRrr(data::GenerateAnticorrelated(n, 2, 10), k);
  Result<std::vector<int32_t>> corr =
      Solve2dRrr(data::GenerateCorrelated(n, 2, 10, 0.95), k);
  ASSERT_TRUE(anti.ok());
  ASSERT_TRUE(corr.ok());
  EXPECT_GE(anti->size(), corr->size());
}

}  // namespace
}  // namespace core
}  // namespace rrr
