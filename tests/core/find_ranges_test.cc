#include "core/find_ranges.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "geometry/angles.h"
#include "test_util.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {
namespace {

TEST(FindRangesTest, RejectsBadArguments) {
  data::Dataset ds3d = data::GenerateUniform(10, 3, 1);
  EXPECT_FALSE(FindRanges(ds3d, 2).ok());
  data::Dataset ds2d = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(FindRanges(ds2d, 0).ok());
}

TEST(FindRangesTest, EmptyDataset) {
  Result<data::Dataset> ds = data::Dataset::FromFlat({}, 0, 2);
  ASSERT_TRUE(ds.ok());
  Result<std::vector<ItemRange>> ranges = FindRanges(*ds, 3);
  ASSERT_TRUE(ranges.ok());
  EXPECT_TRUE(ranges->empty());
}

TEST(FindRangesTest, KGreaterEqualNMakesEveryRangeFull) {
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<ItemRange>> ranges = FindRanges(ds, 7);
  ASSERT_TRUE(ranges.ok());
  for (const auto& r : *ranges) {
    EXPECT_TRUE(r.in_topk);
    EXPECT_DOUBLE_EQ(r.begin, 0.0);
    EXPECT_DOUBLE_EQ(r.end, geometry::kHalfPi);
  }
}

TEST(FindRangesTest, PaperExampleKTwoMembers) {
  // Figure 4: for k = 2 only t1, t3, t5, t7 ever enter the top-2.
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<ItemRange>> ranges = FindRanges(ds, 2);
  ASSERT_TRUE(ranges.ok());
  std::vector<int32_t> members;
  for (size_t id = 0; id < ranges->size(); ++id) {
    if ((*ranges)[id].in_topk) members.push_back(static_cast<int32_t>(id));
  }
  EXPECT_EQ(members, (std::vector<int32_t>{0, 2, 4, 6}));
  // t1 and t7 are in the initial top-2 (ranking by x): ranges start at 0.
  EXPECT_DOUBLE_EQ((*ranges)[0].begin, 0.0);
  EXPECT_DOUBLE_EQ((*ranges)[6].begin, 0.0);
  // t5 is in the final top-2 (ranking by y): range ends at pi/2.
  EXPECT_DOUBLE_EQ((*ranges)[4].end, geometry::kHalfPi);
}

class FindRangesOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FindRangesOracleTest, RangesBoundTopKMembershipExactly) {
  const auto [seed, n, k] = GetParam();
  const data::Dataset ds = data::GenerateUniform(
      static_cast<size_t>(n), 2, static_cast<uint64_t>(seed));
  Result<std::vector<ItemRange>> ranges =
      FindRanges(ds, static_cast<size_t>(k));
  ASSERT_TRUE(ranges.ok());

  for (double theta : testing::AngleGrid(160)) {
    topk::LinearFunction f({std::cos(theta), std::sin(theta)});
    for (size_t id = 0; id < ds.size(); ++id) {
      const int64_t rank =
          testing::BruteRankOf(ds, f, static_cast<int32_t>(id));
      const auto& r = (*ranges)[id];
      if (rank <= k) {
        // In the top-k here: the item's range must contain theta.
        ASSERT_TRUE(r.in_topk) << "id " << id << " theta " << theta;
        EXPECT_LE(r.begin, theta + 1e-9);
        EXPECT_GE(r.end, theta - 1e-9);
      }
      if (r.in_topk) {
        // Theorem 1: inside its range the rank never exceeds 2k.
        if (theta >= r.begin - 1e-12 && theta <= r.end + 1e-12) {
          EXPECT_LE(rank, 2 * k) << "id " << id << " theta " << theta;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, FindRangesOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(12, 60, 200),
                       ::testing::Values(1, 3, 8)));

TEST(FindRangesTest, RangeEndpointsWitnessTopKMembership) {
  // At begin and at end (nudged inside), the item must be in the top-k.
  const data::Dataset ds = data::GenerateUniform(80, 2, 5);
  const size_t k = 4;
  Result<std::vector<ItemRange>> ranges = FindRanges(ds, k);
  ASSERT_TRUE(ranges.ok());
  for (size_t id = 0; id < ds.size(); ++id) {
    const auto& r = (*ranges)[id];
    if (!r.in_topk) continue;
    for (double theta : {r.begin + 1e-9, r.end - 1e-9}) {
      theta = std::clamp(theta, 0.0, geometry::kHalfPi);
      topk::LinearFunction f({std::cos(theta), std::sin(theta)});
      EXPECT_LE(testing::BruteRankOf(ds, f, static_cast<int32_t>(id)),
                static_cast<int64_t>(k) + 1)
          << "id " << id;
    }
  }
}

TEST(FindRangesTest, UnionOfRangesCoversFunctionSpace) {
  const data::Dataset ds = data::GenerateUniform(100, 2, 6);
  Result<std::vector<ItemRange>> ranges = FindRanges(ds, 3);
  ASSERT_TRUE(ranges.ok());
  for (double theta : testing::AngleGrid(100)) {
    bool covered = false;
    for (const auto& r : *ranges) {
      if (r.in_topk && r.begin <= theta && r.end >= theta) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "theta " << theta;
  }
}

TEST(FindRangesTest, TransientTieVisitKeepsTheEarlierExit) {
  // Eighth-quantized rows, each repeated about 8 times: at pi/2 the same-y
  // groups snap to id order in one equal-angle cascade, and an item whose
  // range ended earlier can pass through position k inside it. That visit
  // is bookkeeping, so the range keeps its earlier exit: a range runs on
  // to pi/2 exactly when the item is in the top-k just below pi/2 (no
  // exchange of these rows falls in (atan(8), pi/2)) or at pi/2 itself.
  const data::Dataset pool = data::GenerateUniform(33, 2, 404);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 250; ++i) {
    const double* r = pool.row(i % pool.size());
    rows.push_back(
        {std::round(r[0] * 8.0) / 8.0, std::round(r[1] * 8.0) / 8.0});
  }
  const data::Dataset ds = testing::MakeDataset(rows);
  const double below = geometry::kHalfPi - 1e-6;
  const topk::LinearFunction near_end({std::cos(below), std::sin(below)});
  const topk::LinearFunction at_end({0.0, 1.0});
  for (size_t k : {40u, 80u, 120u, 160u}) {
    Result<std::vector<ItemRange>> ranges = FindRanges(ds, k);
    ASSERT_TRUE(ranges.ok());
    const std::vector<int32_t> top_near =
        testing::BruteTopKSet(ds, near_end, k);
    const std::vector<int32_t> top_at = testing::BruteTopKSet(ds, at_end, k);
    for (size_t id = 0; id < ds.size(); ++id) {
      const auto item = static_cast<int32_t>(id);
      const ItemRange& r = (*ranges)[id];
      EXPECT_EQ(r.in_topk && r.end == geometry::kHalfPi,
                std::binary_search(top_near.begin(), top_near.end(), item) ||
                    std::binary_search(top_at.begin(), top_at.end(), item))
          << "k=" << k << " id " << id;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace rrr
