// End-to-end checks against every concrete number the paper states for its
// running example (Figures 1-6 and the Section 4/5 walk-throughs).
#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/find_ranges.h"
#include "core/kset_enum2d.h"
#include "core/kset_graph.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "geometry/convex_hull.h"
#include "geometry/dominance.h"
#include "test_util.h"

namespace rrr {
namespace {

class PaperExampleTest : public ::testing::Test {
 protected:
  data::Dataset ds_ = testing::PaperFigure1Dataset();
};

TEST_F(PaperExampleTest, Figure2DiagonalRanking) {
  // "the items are ranked as t7, t3, t5, t1, t2, t6, and t4, based on
  // f = x1 + x2".
  topk::LinearFunction f({1.0, 1.0});
  EXPECT_EQ(testing::BruteTopK(ds_, f, 7),
            (std::vector<int32_t>{6, 2, 4, 0, 1, 5, 3}));
}

TEST_F(PaperExampleTest, Figure3XAxisRankingAndTopTwo) {
  // "the ordering of items based on f = x1 is t7, t1, t3, t2, t5, t4, t6;
  // hence, for any set X containing t7 or t1, RR_f(X) <= 2."
  topk::LinearFunction f({1.0, 0.0});
  EXPECT_EQ(testing::BruteTopK(ds_, f, 7),
            (std::vector<int32_t>{6, 0, 2, 1, 4, 3, 5}));
  EXPECT_LE(testing::BruteMinRankOfSubset(ds_, f, {6, 3}), 2);
  EXPECT_LE(testing::BruteMinRankOfSubset(ds_, f, {0, 4}), 2);
}

TEST_F(PaperExampleTest, Figure6KSetsByBothEnumerators) {
  Result<core::KSetCollection> sweep = core::EnumerateKSets2D(ds_, 2);
  Result<core::KSetCollection> graph = core::EnumerateKSetsGraph(ds_, 2);
  ASSERT_TRUE(sweep.ok());
  ASSERT_TRUE(graph.ok());
  for (const auto* c : {&*sweep, &*graph}) {
    EXPECT_EQ(c->size(), 3u);
    EXPECT_TRUE(c->Contains(core::KSet{{0, 6}}));  // {t1, t7}
    EXPECT_TRUE(c->Contains(core::KSet{{2, 6}}));  // {t7, t3}
    EXPECT_TRUE(c->Contains(core::KSet{{2, 4}}));  // {t3, t5}
  }
}

TEST_F(PaperExampleTest, SkylineAndConvexMaxima) {
  // t7 dominates t1; t3 dominates t2 and t4; t5 dominates t6: the skyline
  // is {t3, t5, t7}.
  const std::vector<int32_t> sky =
      geometry::Skyline(ds_.flat(), ds_.size(), 2);
  EXPECT_EQ(sky, (std::vector<int32_t>{2, 4, 6}));
  // Convex maxima (order-1 RRR): t7, t3, t5 only.
  Result<std::vector<int32_t>> maxima =
      geometry::ConvexMaxima(ds_.flat(), ds_.size(), 2);
  ASSERT_TRUE(maxima.ok());
  EXPECT_EQ(*maxima, (std::vector<int32_t>{2, 4, 6}));
}

TEST_F(PaperExampleTest, Section4TwoDrrrWalkthrough) {
  // "if we execute Algorithm 2 on the ranges provided in Figure 4, it
  // returns the set {t3, t1}" — with the paper's max-coverage greedy.
  core::Rrr2dOptions paper_greedy;
  paper_greedy.cover = hitting::CoverStrategy::kGreedyMaxCoverage;
  Result<std::vector<int32_t>> rep = core::Solve2dRrr(ds_, 2, paper_greedy);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(*rep, (std::vector<int32_t>{0, 2}));  // {t1, t3}
  // And the 2k guarantee holds.
  Result<int64_t> regret = core::SweepExactRankRegret2D(ds_, *rep);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, 4);
}

TEST_F(PaperExampleTest, AllThreeAlgorithmsProduceValidRepresentatives) {
  const size_t k = 2;
  // 2DRRR.
  Result<std::vector<int32_t>> rrr2d = core::Solve2dRrr(ds_, k);
  ASSERT_TRUE(rrr2d.ok());
  // MDRRR over the exact k-set collection.
  Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds_, k);
  ASSERT_TRUE(ksets.ok());
  Result<std::vector<int32_t>> mdrrr = core::SolveMdrrr(ds_, *ksets);
  ASSERT_TRUE(mdrrr.ok());
  // MDRC.
  Result<std::vector<int32_t>> mdrc = core::SolveMdrc(ds_, k);
  ASSERT_TRUE(mdrc.ok());

  Result<int64_t> r1 = core::SweepExactRankRegret2D(ds_, *rrr2d);
  Result<int64_t> r2 = core::SweepExactRankRegret2D(ds_, *mdrrr);
  Result<int64_t> r3 = core::SweepExactRankRegret2D(ds_, *mdrc);
  EXPECT_LE(*r1, 4);  // 2k
  EXPECT_LE(*r2, 2);  // k (exact collection)
  EXPECT_LE(*r3, 4);  // dk
  // The optimal size is 2; 2DRRR must attain it (Theorem 3).
  EXPECT_EQ(rrr2d->size(), 2u);
  EXPECT_EQ(testing::BruteForceOptimalRrrSize2D(ds_, k), 2);
}

TEST_F(PaperExampleTest, FindRangesMatchesFigure4Shape) {
  // Figure 4 plots ranges for exactly t1, t3, t5, t7; t1 and t7 start at
  // 0, t3 and t5 end at pi/2 ordering their begins b7=b1=0 < b3 < b5.
  Result<std::vector<core::ItemRange>> ranges = core::FindRanges(ds_, 2);
  ASSERT_TRUE(ranges.ok());
  EXPECT_TRUE((*ranges)[0].in_topk);
  EXPECT_TRUE((*ranges)[2].in_topk);
  EXPECT_TRUE((*ranges)[4].in_topk);
  EXPECT_TRUE((*ranges)[6].in_topk);
  EXPECT_FALSE((*ranges)[1].in_topk);
  EXPECT_FALSE((*ranges)[3].in_topk);
  EXPECT_FALSE((*ranges)[5].in_topk);
  EXPECT_LT((*ranges)[0].end, (*ranges)[6].end);   // t1 exits before t7
  EXPECT_LT((*ranges)[2].begin, (*ranges)[4].begin);  // t3 enters before t5
}

}  // namespace
}  // namespace rrr
