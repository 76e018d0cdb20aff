#include "core/kset_enum2d.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "lp/separation.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

TEST(KSetEnum2DTest, RejectsBadArguments) {
  data::Dataset ds3d = data::GenerateUniform(10, 3, 1);
  EXPECT_FALSE(EnumerateKSets2D(ds3d, 2).ok());
  data::Dataset ds2d = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(EnumerateKSets2D(ds2d, 0).ok());
}

TEST(KSetEnum2DTest, PaperExampleTwoSets) {
  // Figure 6: S = {{t1,t7}, {t7,t3}, {t3,t5}} for k = 2.
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, 2);
  ASSERT_TRUE(ksets.ok());
  ASSERT_EQ(ksets->size(), 3u);
  EXPECT_TRUE(ksets->Contains(KSet{{0, 6}}));
  EXPECT_TRUE(ksets->Contains(KSet{{2, 6}}));
  EXPECT_TRUE(ksets->Contains(KSet{{2, 4}}));
}

TEST(KSetEnum2DTest, KOneEnumeratesConvexMaximaInSweepOrder) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, 1);
  ASSERT_TRUE(ksets.ok());
  // Winners along the sweep: t7, then t3, then t5.
  ASSERT_EQ(ksets->size(), 3u);
  EXPECT_EQ(ksets->sets()[0].ids, (std::vector<int32_t>{6}));
  EXPECT_EQ(ksets->sets()[1].ids, (std::vector<int32_t>{2}));
  EXPECT_EQ(ksets->sets()[2].ids, (std::vector<int32_t>{4}));
}

TEST(KSetEnum2DTest, KGreaterEqualNGivesSingleFullSet) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, 9);
  ASSERT_TRUE(ksets.ok());
  ASSERT_EQ(ksets->size(), 1u);
  EXPECT_EQ(ksets->sets()[0].ids.size(), 7u);
}

class KSetEnum2DOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KSetEnum2DOracleTest, SampledTopKSetsAreAllEnumerated) {
  // Lemma 5 direction: every realized top-k set is a k-set, and the sweep
  // must have found it.
  const auto [seed, n, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed));
  Result<KSetCollection> ksets =
      EnumerateKSets2D(ds, static_cast<size_t>(k));
  ASSERT_TRUE(ksets.ok());
  for (double theta : testing::AngleGrid(500)) {
    KSet observed;
    observed.ids = testing::BruteTopKSet(
        ds,
        topk::LinearFunction({std::cos(theta), std::sin(theta)}),
        static_cast<size_t>(k));
    EXPECT_TRUE(ksets->Contains(observed)) << "theta " << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, KSetEnum2DOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(10, 60, 150),
                       ::testing::Values(1, 3, 7)));

TEST(KSetEnum2DTest, EveryEnumeratedSetIsLpSeparable) {
  const data::Dataset ds = data::GenerateUniform(40, 2, 5);
  const size_t k = 4;
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, k);
  ASSERT_TRUE(ksets.ok());
  for (const KSet& s : ksets->sets()) {
    ASSERT_EQ(s.ids.size(), k);
    Result<lp::SeparationResult> sep =
        lp::FindSeparatingWeights(ds.flat(), ds.size(), 2, s.ids);
    ASSERT_TRUE(sep.ok());
    EXPECT_TRUE(sep->separable);
  }
}

TEST(KSetEnum2DTest, EverySetHasAGraphNeighborInTheCollection) {
  // The sweep walks the k-set graph (Definition 4) edge by edge, so every
  // discovered set other than the first must share k-1 items with some
  // other discovered set (a connectivity witness for Theorem 7).
  const data::Dataset ds = data::GenerateUniform(80, 2, 6);
  const size_t k = 5;
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, k);
  ASSERT_TRUE(ksets.ok());
  const auto& sets = ksets->sets();
  ASSERT_GT(sets.size(), 1u);
  for (size_t i = 0; i < sets.size(); ++i) {
    bool has_neighbor = false;
    for (size_t j = 0; j < sets.size() && !has_neighbor; ++j) {
      if (i != j && sets[i].IntersectionSize(sets[j]) == k - 1) {
        has_neighbor = true;
      }
    }
    EXPECT_TRUE(has_neighbor) << "set " << i << " is isolated";
  }
}

TEST(KSetEnum2DTest, TheoremSevenGraphIsConnected) {
  // Theorem 7: the k-set graph of a complete collection is connected.
  for (uint64_t seed : {8u, 9u}) {
    const data::Dataset ds = data::GenerateUniform(60, 2, seed);
    for (size_t k : {2u, 5u}) {
      Result<KSetCollection> ksets = EnumerateKSets2D(ds, k);
      ASSERT_TRUE(ksets.ok());
      EXPECT_EQ(KSetGraphComponents(ksets->sets()), 1u)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(KSetEnum2DTest, CorrelatedDataHasFewerKSetsThanAnticorrelated) {
  const size_t n = 200, k = 5;
  Result<KSetCollection> corr =
      EnumerateKSets2D(data::GenerateCorrelated(n, 2, 7, 0.95), k);
  Result<KSetCollection> anti =
      EnumerateKSets2D(data::GenerateAnticorrelated(n, 2, 7), k);
  ASSERT_TRUE(corr.ok());
  ASSERT_TRUE(anti.ok());
  EXPECT_LT(corr->size(), anti->size());
}

}  // namespace
}  // namespace core
}  // namespace rrr
