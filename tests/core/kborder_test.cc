#include "core/kborder.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "geometry/angles.h"
#include "test_util.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {
namespace {

TEST(KBorderTest, RejectsBadArguments) {
  const data::Dataset ds3 = data::GenerateUniform(10, 3, 1);
  EXPECT_FALSE(ComputeKBorder2D(ds3, 2).ok());
  const data::Dataset ds = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(ComputeKBorder2D(ds, 0).ok());
  EXPECT_FALSE(ComputeKBorder2D(ds, 11).ok());
}

TEST(KBorderTest, SegmentsTileTheSweepRange) {
  const data::Dataset ds = data::GenerateUniform(60, 2, 2);
  Result<std::vector<KBorderSegment>> border = ComputeKBorder2D(ds, 5);
  ASSERT_TRUE(border.ok());
  ASSERT_FALSE(border->empty());
  EXPECT_DOUBLE_EQ(border->front().begin, 0.0);
  EXPECT_DOUBLE_EQ(border->back().end, geometry::kHalfPi);
  for (size_t i = 1; i < border->size(); ++i) {
    EXPECT_DOUBLE_EQ((*border)[i - 1].end, (*border)[i].begin);
    EXPECT_NE((*border)[i - 1].item, (*border)[i].item);
  }
}

TEST(KBorderTest, PaperExampleTopTwoBorder) {
  // Figure 3's red chain for k = 2, as the sweep walks it: the rank-2
  // tuple is t1, t3, t7, t5 and t3 again — t3 contributing two facets is
  // exactly the paper's "a dual hyperplane may contain more than one facet
  // of the top-k border".
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<KBorderSegment>> border = ComputeKBorder2D(ds, 2);
  ASSERT_TRUE(border.ok());
  std::vector<int32_t> owners;
  for (const auto& seg : *border) owners.push_back(seg.item);
  EXPECT_EQ(owners, (std::vector<int32_t>{0, 2, 6, 4, 2}));
}

class KBorderOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KBorderOracleTest, SegmentOwnerHasRankKInsideItsSegment) {
  const auto [seed, k] = GetParam();
  const data::Dataset ds =
      data::GenerateUniform(40, 2, static_cast<uint64_t>(seed));
  Result<std::vector<KBorderSegment>> border =
      ComputeKBorder2D(ds, static_cast<size_t>(k));
  ASSERT_TRUE(border.ok());
  for (const auto& seg : *border) {
    if (seg.end - seg.begin < 1e-9) continue;  // too thin to probe safely
    const double mid = 0.5 * (seg.begin + seg.end);
    topk::LinearFunction f({std::cos(mid), std::sin(mid)});
    EXPECT_EQ(testing::BruteRankOf(ds, f, seg.item), k)
        << "segment [" << seg.begin << ", " << seg.end << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, KBorderOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3, 10)));

TEST(KBorderTest, KEqualsNBorderIsTheMinimum) {
  // The n-th ranked tuple: the loser of every function.
  data::Dataset ds = testing::MakeDataset(
      {{0.9, 0.9}, {0.5, 0.4}, {0.1, 0.05}});
  Result<std::vector<KBorderSegment>> border = ComputeKBorder2D(ds, 3);
  ASSERT_TRUE(border.ok());
  ASSERT_EQ(border->size(), 1u);
  EXPECT_EQ(border->front().item, 2);
}

TEST(KBorderTest, BorderChangesAreLocal) {
  // Consecutive owners must be exchange partners: their ranks differ by
  // one at the junction, so re-ranking at the junction +- epsilon flips
  // their order.
  const data::Dataset ds = data::GenerateUniform(30, 2, 4);
  const size_t k = 4;
  Result<std::vector<KBorderSegment>> border = ComputeKBorder2D(ds, k);
  ASSERT_TRUE(border.ok());
  for (size_t i = 1; i < border->size(); ++i) {
    const double before = (*border)[i].begin - 1e-7;
    const double after = (*border)[i].begin + 1e-7;
    if (before <= 0 || after >= geometry::kHalfPi) continue;
    topk::LinearFunction fb({std::cos(before), std::sin(before)});
    topk::LinearFunction fa({std::cos(after), std::sin(after)});
    // Old owner at rank k before; new owner at rank k after.
    EXPECT_EQ(testing::BruteRankOf(ds, fb, (*border)[i - 1].item), k);
    EXPECT_EQ(testing::BruteRankOf(ds, fa, (*border)[i].item), k);
  }
}

}  // namespace
}  // namespace core
}  // namespace rrr
