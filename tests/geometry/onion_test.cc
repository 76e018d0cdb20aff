#include "geometry/onion.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "geometry/convex_hull.h"
#include "test_util.h"
#include "topk/scoring.h"

namespace rrr {
namespace geometry {
namespace {

TEST(OnionLayersTest, EveryPointInExactlyOneLayer) {
  const data::Dataset ds = data::GenerateUniform(60, 3, 1);
  Result<std::vector<std::vector<int32_t>>> layers =
      OnionLayers(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(layers.ok());
  std::vector<int32_t> all;
  for (const auto& layer : *layers) {
    EXPECT_FALSE(layer.empty());
    all.insert(all.end(), layer.begin(), layer.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<int32_t> expected(ds.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);
}

TEST(OnionLayersTest, LayerZeroIsTheConvexMaxima) {
  const data::Dataset ds = data::GenerateUniform(40, 2, 2);
  Result<std::vector<std::vector<int32_t>>> layers =
      OnionLayers(ds.flat(), ds.size(), ds.dims());
  Result<std::vector<int32_t>> maxima =
      ConvexMaxima(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(layers.ok());
  ASSERT_TRUE(maxima.ok());
  std::vector<int32_t> layer0 = (*layers)[0];
  std::sort(layer0.begin(), layer0.end());
  EXPECT_EQ(layer0, *maxima);
}

TEST(OnionLayersTest, PaperExampleLayers) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<std::vector<int32_t>>> layers =
      OnionLayers(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(layers.ok());
  // Layer 0 = {t3, t5, t7} (the order-1 representative).
  std::vector<int32_t> layer0 = (*layers)[0];
  std::sort(layer0.begin(), layer0.end());
  EXPECT_EQ(layer0, (std::vector<int32_t>{2, 4, 6}));
}

class OnionCoverTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(OnionCoverTest, TopKIsWithinFirstKLayers) {
  // The onion-index property: for every sampled non-negative function, the
  // top-k lies in the union of the first k layers.
  const auto [seed, d] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      50, static_cast<size_t>(d), static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) + 7);
  for (size_t k : {1u, 2u, 4u}) {
    Result<std::vector<int32_t>> cover =
        FirstKOnionLayers(ds.flat(), ds.size(), ds.dims(), k);
    ASSERT_TRUE(cover.ok());
    for (int rep = 0; rep < 60; ++rep) {
      topk::LinearFunction f(rng.UnitWeightVector(d));
      for (int32_t id : testing::BruteTopK(ds, f, k)) {
        EXPECT_TRUE(std::binary_search(cover->begin(), cover->end(), id))
            << "top-" << k << " member " << id << " outside first " << k
            << " layers";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, OnionCoverTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(2, 3, 4)));

TEST(OnionLayersTest, DuplicateHeavyDataStillTerminates) {
  data::Dataset ds = testing::MakeDataset(
      {{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9}});
  Result<std::vector<std::vector<int32_t>>> layers =
      OnionLayers(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(layers.ok());
  size_t total = 0;
  for (const auto& layer : *layers) total += layer.size();
  EXPECT_EQ(total, 4u);
}

TEST(OnionLayersTest, EmptyInput) {
  Result<std::vector<std::vector<int32_t>>> layers = OnionLayers(nullptr, 0, 2);
  ASSERT_TRUE(layers.ok());
  EXPECT_TRUE(layers->empty());
}

TEST(FirstKOnionLayersTest, IsMuchBiggerThanRrrOptimum) {
  // The onion cover is correct but bulky — the reason the paper's
  // algorithms exist. Compare sizes on the paper example.
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<int32_t>> onion =
      FirstKOnionLayers(ds.flat(), ds.size(), 2, 2);
  ASSERT_TRUE(onion.ok());
  EXPECT_GE(onion->size(), 4u);  // layers 0+1
  EXPECT_EQ(testing::BruteForceOptimalRrrSize2D(ds, 2), 2);
}

TEST(FirstKOnionLayersTest, RejectsKZero) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  EXPECT_FALSE(FirstKOnionLayers(ds.flat(), ds.size(), 2, 0).ok());
}

}  // namespace
}  // namespace geometry
}  // namespace rrr
