#include "core/kset_graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/kset_enum2d.h"
#include "data/generators.h"
#include "lp/separation.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

std::vector<std::vector<int32_t>> SortedSets(const KSetCollection& c) {
  std::vector<std::vector<int32_t>> out;
  for (const auto& s : c.sets()) out.push_back(s.ids);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(KSetGraphTest, RejectsBadArguments) {
  data::Dataset ds = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(EnumerateKSetsGraph(ds, 0).ok());
  EXPECT_FALSE(EnumerateKSetsGraph(ds, 10).ok());  // k >= n
  EXPECT_FALSE(EnumerateKSetsGraph(ds, 15).ok());
  data::Dataset empty;
  EXPECT_FALSE(EnumerateKSetsGraph(empty, 1).ok());
}

TEST(KSetGraphTest, PaperExampleTwoSets) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<KSetCollection> ksets = EnumerateKSetsGraph(ds, 2);
  ASSERT_TRUE(ksets.ok());
  EXPECT_EQ(SortedSets(*ksets),
            (std::vector<std::vector<int32_t>>{{0, 6}, {2, 4}, {2, 6}}));
}

class KSetGraphVs2DTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KSetGraphVs2DTest, MatchesSweepEnumerationIn2D) {
  // Two totally different algorithms (LP-validated BFS vs angular sweep)
  // must produce identical collections.
  const auto [seed, n, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed));
  Result<KSetCollection> graph =
      EnumerateKSetsGraph(ds, static_cast<size_t>(k));
  Result<KSetCollection> sweep =
      EnumerateKSets2D(ds, static_cast<size_t>(k));
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(SortedSets(*graph), SortedSets(*sweep));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, KSetGraphVs2DTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(8, 14, 22),
                       ::testing::Values(1, 2, 4)));

TEST(KSetGraphTest, ThreeDSampledTopKSetsAreEnumerated) {
  // Lemma 5 in 3D: random functions' top-k sets must all be in the exact
  // enumeration.
  const data::Dataset ds = data::GenerateUniform(16, 3, 4);
  const size_t k = 3;
  Result<KSetCollection> ksets = EnumerateKSetsGraph(ds, k);
  ASSERT_TRUE(ksets.ok());
  Rng rng(5);
  for (int rep = 0; rep < 400; ++rep) {
    KSet observed;
    observed.ids = testing::BruteTopKSet(
        ds, topk::LinearFunction(rng.UnitWeightVector(3)), k);
    EXPECT_TRUE(ksets->Contains(observed));
  }
}

TEST(KSetGraphTest, MaxKSetsBudgetIsEnforced) {
  const data::Dataset ds = data::GenerateAnticorrelated(30, 2, 6);
  KSetGraphOptions opts;
  opts.max_ksets = 2;
  Result<KSetCollection> ksets = EnumerateKSetsGraph(ds, 3, opts);
  EXPECT_FALSE(ksets.ok());
  EXPECT_EQ(ksets.status().code(), StatusCode::kResourceExhausted);
}

TEST(KSetGraphTest, MatchesBruteForceSubsetEnumeration) {
  // Ground truth by definition: test every C(n, k) subset with the
  // separation LP and compare collections. n and k kept tiny on purpose.
  const data::Dataset ds = data::GenerateUniform(9, 3, 7);
  const size_t k = 2;
  Result<KSetCollection> graph = EnumerateKSetsGraph(ds, k);
  ASSERT_TRUE(graph.ok());

  std::vector<std::vector<int32_t>> brute;
  for (int32_t a = 0; a < static_cast<int32_t>(ds.size()); ++a) {
    for (int32_t b = a + 1; b < static_cast<int32_t>(ds.size()); ++b) {
      Result<lp::SeparationResult> sep = lp::FindSeparatingWeights(
          ds.flat(), ds.size(), ds.dims(), {a, b});
      ASSERT_TRUE(sep.ok());
      if (sep->separable) brute.push_back({a, b});
    }
  }
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(SortedSets(*graph), brute);
}

TEST(KSetGraphTest, CollectionSizeRespectsKnownCounts) {
  // A square with an interior point, k = 1: the three corner points facing
  // the positive orthant are the only 1-sets.
  data::Dataset ds = testing::MakeDataset(
      {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.5, 0.5}});
  Result<KSetCollection> ksets = EnumerateKSetsGraph(ds, 1);
  ASSERT_TRUE(ksets.ok());
  EXPECT_EQ(SortedSets(*ksets),
            (std::vector<std::vector<int32_t>>{{3}}));
}

}  // namespace
}  // namespace core
}  // namespace rrr
