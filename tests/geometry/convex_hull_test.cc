#include "geometry/convex_hull.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "test_util.h"
#include "topk/scoring.h"

namespace rrr {
namespace geometry {
namespace {

TEST(ConvexHull2DTest, Square) {
  // Four corners plus an interior point.
  const std::vector<double> rows = {0, 0, 1, 0, 1, 1, 0, 1, 0.5, 0.5};
  std::vector<int32_t> hull = ConvexHull2D(rows.data(), 5);
  std::sort(hull.begin(), hull.end());
  EXPECT_EQ(hull, (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(ConvexHull2DTest, CollinearPointsKeepExtremes) {
  const std::vector<double> rows = {0, 0, 1, 1, 2, 2, 3, 3};
  std::vector<int32_t> hull = ConvexHull2D(rows.data(), 4);
  std::sort(hull.begin(), hull.end());
  EXPECT_EQ(hull, (std::vector<int32_t>{0, 3}));
}

TEST(ConvexHull2DTest, DegenerateSizes) {
  const std::vector<double> one = {0.5, 0.5};
  EXPECT_EQ(ConvexHull2D(one.data(), 1), (std::vector<int32_t>{0}));
  const std::vector<double> dup = {0.5, 0.5, 0.5, 0.5};
  EXPECT_EQ(ConvexHull2D(dup.data(), 2), (std::vector<int32_t>{0}));
  EXPECT_TRUE(ConvexHull2D(nullptr, 0).empty());
}

TEST(ConvexHull2DTest, AllInputPointsInsideHull) {
  Rng rng(41);
  std::vector<double> rows;
  const size_t n = 60;
  for (size_t i = 0; i < 2 * n; ++i) rows.push_back(rng.Uniform());
  const std::vector<int32_t> hull = ConvexHull2D(rows.data(), n);
  ASSERT_GE(hull.size(), 3u);
  // Every point must be on or inside the CCW hull polygon.
  for (size_t p = 0; p < n; ++p) {
    for (size_t e = 0; e < hull.size(); ++e) {
      const int32_t a = hull[e];
      const int32_t b = hull[(e + 1) % hull.size()];
      const double cross =
          (rows[2 * b] - rows[2 * a]) * (rows[2 * p + 1] - rows[2 * a + 1]) -
          (rows[2 * b + 1] - rows[2 * a + 1]) * (rows[2 * p] - rows[2 * a]);
      EXPECT_GE(cross, -1e-12) << "point " << p << " outside edge " << e;
    }
  }
}

TEST(ConvexMaximaTest, PaperExampleMatchesOneSets) {
  // Section 5.1: each point of the convex hull (facing the positive
  // orthant) is a 1-set. For Figure 1 the order-1 representative is
  // {t7, t3, t5} plus t1 (vertex between t7 and t3 on the upper-right
  // chain): verify against brute force over sampled functions.
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<std::vector<int32_t>> maxima =
      ConvexMaxima(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(maxima.ok());
  // Brute force: which items are top-1 for some sampled function?
  std::vector<char> seen(ds.size(), 0);
  for (double theta : testing::AngleGrid(2000)) {
    seen[static_cast<size_t>(testing::TopKAtAngle(ds, theta, 1)[0])] = 1;
  }
  std::vector<int32_t> expected;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (seen[i]) expected.push_back(static_cast<int32_t>(i));
  }
  EXPECT_EQ(*maxima, expected);
}

TEST(ConvexMaximaTest, EveryMaximaItemWinsSomewhereIn3D) {
  const data::Dataset ds = data::GenerateUniform(40, 3, 43);
  Result<std::vector<int32_t>> maxima =
      ConvexMaxima(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(maxima.ok());
  EXPECT_FALSE(maxima->empty());
  // Cross-check: every top-1 of a sampled function is in the maxima set.
  Rng rng(44);
  for (int rep = 0; rep < 300; ++rep) {
    topk::LinearFunction f(rng.UnitWeightVector(3));
    const int32_t winner = testing::BruteTopK(ds, f, 1)[0];
    EXPECT_TRUE(std::binary_search(maxima->begin(), maxima->end(), winner));
  }
}

TEST(ConvexMaximaTest, PreemptionStopsTheLpFanOut) {
  // Anticorrelated rows are nearly all maxima: one LP of n constraints per
  // row, far longer than the 1 ms budget.
  const data::Dataset ds = data::GenerateAnticorrelated(400, 4, 3);
  ExecContext deadline;
  deadline.deadline = Deadline::After(0.001);
  for (size_t threads : {1u, 4u}) {
    EXPECT_EQ(ConvexMaxima(ds.flat(), ds.size(), ds.dims(), threads, nullptr,
                           deadline)
                  .status()
                  .code(),
              StatusCode::kDeadlineExceeded);
  }
  CancellationSource source;
  source.RequestCancel();
  ExecContext cancelled;
  cancelled.cancel = source.token();
  EXPECT_EQ(ConvexMaxima(ds.flat(), ds.size(), ds.dims(), 1, nullptr,
                         cancelled)
                .status()
                .code(),
            StatusCode::kCancelled);
}

TEST(ConvexMaximaTest, TrivialSizes) {
  const std::vector<double> one = {0.5, 0.5};
  Result<std::vector<int32_t>> m = ConvexMaxima(one.data(), 1, 2);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, (std::vector<int32_t>{0}));
  EXPECT_TRUE(ConvexMaxima(one.data(), 0, 2)->empty());
  EXPECT_FALSE(ConvexMaxima(nullptr, 3, 2).ok());
}

}  // namespace
}  // namespace geometry
}  // namespace rrr
