// Top-k selection over the columnar mirror (TopKScan / TopKSetScan):
// fixed paper orderings plus the brute-force full-sort oracle.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "test_util.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace topk {
namespace {

/// TopKScan over a fresh serial mirror of `ds`.
std::vector<int32_t> TopK(const data::Dataset& ds, const LinearFunction& f,
                          size_t k) {
  return TopKScan(testing::MustBuildBlocks(ds), f, k);
}

TEST(TopKTest, PaperExampleDiagonalOrdering) {
  // Figure 2: ranking by f = x1 + x2 is t7, t3, t5, t1, t2, t6, t4
  // (0-based: 6, 2, 4, 0, 1, 5, 3).
  data::Dataset ds = testing::PaperFigure1Dataset();
  LinearFunction f({1.0, 1.0});
  EXPECT_EQ(TopK(ds, f, 7), (std::vector<int32_t>{6, 2, 4, 0, 1, 5, 3}));
}

TEST(TopKTest, PaperExampleXAxisOrdering) {
  // Section 3: ranking by f = x1 is t7, t1, t3, t2, t5, t4, t6.
  data::Dataset ds = testing::PaperFigure1Dataset();
  LinearFunction f({1.0, 0.0});
  EXPECT_EQ(TopK(ds, f, 7), (std::vector<int32_t>{6, 0, 2, 1, 4, 3, 5}));
}

TEST(TopKTest, PrefixConsistency) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  LinearFunction f({1.0, 1.0});
  const auto full = TopK(ds, f, 7);
  for (size_t k = 1; k <= 7; ++k) {
    const auto top = TopK(ds, f, k);
    ASSERT_EQ(top.size(), k);
    EXPECT_TRUE(std::equal(top.begin(), top.end(), full.begin()));
  }
}

TEST(TopKTest, KLargerThanNClamps) {
  data::Dataset ds = testing::MakeDataset({{1.0}, {2.0}});
  EXPECT_EQ(TopK(ds, LinearFunction({1.0}), 10).size(), 2u);
}

TEST(TopKTest, KZeroIsEmpty) {
  data::Dataset ds = testing::MakeDataset({{1.0}});
  EXPECT_TRUE(TopK(ds, LinearFunction({1.0}), 0).empty());
}

TEST(TopKTest, TiesBreakByLowerId) {
  data::Dataset ds =
      testing::MakeDataset({{0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9}});
  const auto top = TopK(ds, LinearFunction({1.0, 1.0}), 2);
  EXPECT_EQ(top, (std::vector<int32_t>{2, 0}));
}

TEST(TopKTest, TopKSetIsSortedSameMembers) {
  const data::Dataset ds = data::GenerateUniform(100, 3, 5);
  LinearFunction f({0.2, 0.3, 0.5});
  auto ranked = TopK(ds, f, 10);
  auto set = TopKSetScan(testing::MustBuildBlocks(ds), f, 10);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  std::sort(ranked.begin(), ranked.end());
  EXPECT_EQ(ranked, set);
}

class TopKOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TopKOracleTest, MatchesFullSortOracle) {
  const auto [seed, n, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 3, static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) + 1000);
  const data::ColumnBlocks blocks = testing::MustBuildBlocks(ds);
  const size_t kk = static_cast<size_t>(k);
  for (int rep = 0; rep < 5; ++rep) {
    LinearFunction f(rng.UnitWeightVector(3));
    EXPECT_EQ(TopKScan(blocks, f, kk), testing::BruteTopK(ds, f, kk));
    EXPECT_EQ(TopKSetScan(blocks, f, kk), testing::BruteTopKSet(ds, f, kk));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, TopKOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(10, 100, 500),
                       ::testing::Values(1, 5, 50)));

}  // namespace
}  // namespace topk
}  // namespace rrr
