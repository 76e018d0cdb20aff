#include "topk/rank.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "test_util.h"

namespace rrr {
namespace topk {
namespace {

// Every case ranks over a fresh serial mirror of its dataset; the
// brute-force count loop in test_util is the reference.
int64_t RankOf(const data::Dataset& ds, const LinearFunction& f,
               int32_t item) {
  return topk::RankOf(testing::MustBuildBlocks(ds), f, item);
}

int64_t MinRankOfSubset(const data::Dataset& ds, const LinearFunction& f,
                        const std::vector<int32_t>& subset) {
  return topk::MinRankOfSubset(testing::MustBuildBlocks(ds), f, subset);
}

TEST(RankOfTest, PaperExampleRanks) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  LinearFunction f({1.0, 1.0});
  // Figure 2 ordering: t7, t3, t5, t1, t2, t6, t4.
  EXPECT_EQ(RankOf(ds, f, 6), 1);
  EXPECT_EQ(RankOf(ds, f, 2), 2);
  EXPECT_EQ(RankOf(ds, f, 4), 3);
  EXPECT_EQ(RankOf(ds, f, 0), 4);
  EXPECT_EQ(RankOf(ds, f, 1), 5);
  EXPECT_EQ(RankOf(ds, f, 5), 6);
  EXPECT_EQ(RankOf(ds, f, 3), 7);
}

TEST(RankOfTest, ConsistentWithTopKPositions) {
  const data::Dataset ds = data::GenerateUniform(80, 3, 6);
  Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    LinearFunction f(rng.UnitWeightVector(3));
    const auto order = testing::BruteTopK(ds, f, ds.size());
    for (size_t pos = 0; pos < order.size(); ++pos) {
      EXPECT_EQ(RankOf(ds, f, order[pos]), static_cast<int64_t>(pos) + 1);
      EXPECT_EQ(testing::BruteRankOf(ds, f, order[pos]),
                static_cast<int64_t>(pos) + 1);
    }
  }
}

TEST(RankOfTest, TiesGiveDistinctRanks) {
  data::Dataset ds =
      testing::MakeDataset({{0.5, 0.5}, {0.5, 0.5}, {0.1, 0.1}});
  LinearFunction f({1.0, 1.0});
  EXPECT_EQ(RankOf(ds, f, 0), 1);
  EXPECT_EQ(RankOf(ds, f, 1), 2);
  EXPECT_EQ(RankOf(ds, f, 2), 3);
}

TEST(MinRankOfSubsetTest, EqualsMinOfIndividualRanks) {
  const data::Dataset ds = data::GenerateUniform(60, 4, 8);
  Rng rng(9);
  for (int rep = 0; rep < 10; ++rep) {
    LinearFunction f(rng.UnitWeightVector(4));
    const std::vector<int32_t> subset = {3, 17, 42, 55};
    int64_t expected = ds.size() + 1;
    for (int32_t id : subset) {
      expected = std::min(expected, RankOf(ds, f, id));
    }
    EXPECT_EQ(MinRankOfSubset(ds, f, subset), expected);
    EXPECT_EQ(testing::BruteMinRankOfSubset(ds, f, subset), expected);
  }
}

TEST(MinRankOfSubsetTest, SingletonEqualsRankOf) {
  const data::Dataset ds = data::GenerateUniform(30, 2, 10);
  LinearFunction f({0.6, 0.8});
  for (int32_t id : {0, 7, 29}) {
    EXPECT_EQ(MinRankOfSubset(ds, f, {id}), RankOf(ds, f, id));
  }
}

TEST(MinRankOfSubsetTest, FullSetHasRankOne) {
  const data::Dataset ds = data::GenerateUniform(25, 2, 11);
  std::vector<int32_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  LinearFunction f({0.5, 0.5});
  EXPECT_EQ(MinRankOfSubset(ds, f, all), 1);
}

TEST(RankDeathTest, RejectsOutOfRangeItem) {
  data::Dataset ds = testing::MakeDataset({{1.0}});
  LinearFunction f({1.0});
  EXPECT_DEATH({ (void)RankOf(ds, f, 5); }, "out of range");
  EXPECT_DEATH({ (void)MinRankOfSubset(ds, f, {}); }, "empty subset");
}

}  // namespace
}  // namespace topk
}  // namespace rrr
