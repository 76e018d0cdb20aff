#include "core/solver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "data/generators.h"
#include "geometry/convex_hull.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

TEST(SolverTest, AlgorithmNames) {
  EXPECT_EQ(AlgorithmName(Algorithm::k2dRrr), "2DRRR");
  EXPECT_EQ(AlgorithmName(Algorithm::kMdRrr), "MDRRR");
  EXPECT_EQ(AlgorithmName(Algorithm::kMdRc), "MDRC");
  EXPECT_EQ(AlgorithmName(Algorithm::kAuto), "AUTO");
  EXPECT_EQ(AlgorithmName(Algorithm::kConvexMaxima), "MAXIMA");
}

TEST(SolverTest, ParseAlgorithmRoundTripsEveryName) {
  for (Algorithm algorithm :
       {Algorithm::kAuto, Algorithm::k2dRrr, Algorithm::kMdRrr,
        Algorithm::kMdRc, Algorithm::kConvexMaxima}) {
    Result<Algorithm> parsed = ParseAlgorithm(AlgorithmName(algorithm));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(*parsed, algorithm);
  }
}

TEST(SolverTest, ParseAlgorithmAcceptsCliSpellings) {
  EXPECT_EQ(*ParseAlgorithm("auto"), Algorithm::kAuto);
  EXPECT_EQ(*ParseAlgorithm("2drrr"), Algorithm::k2dRrr);
  EXPECT_EQ(*ParseAlgorithm("mdrrr"), Algorithm::kMdRrr);
  EXPECT_EQ(*ParseAlgorithm("mdrc"), Algorithm::kMdRc);
  EXPECT_EQ(*ParseAlgorithm("maxima"), Algorithm::kConvexMaxima);
  EXPECT_EQ(*ParseAlgorithm("MdRc"), Algorithm::kMdRc);  // case-insensitive
}

TEST(SolverTest, ParseAlgorithmRejectsUnknownNames) {
  for (const char* bad : {"", "2d", "greedy", "mdrc ", "autoo"}) {
    Result<Algorithm> parsed = ParseAlgorithm(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SolverTest, AutoPicks2DrrrForTwoDims) {
  const data::Dataset ds = data::GenerateUniform(50, 2, 1);
  RrrOptions opts;
  opts.k = 3;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->algorithm_used, Algorithm::k2dRrr);
  EXPECT_FALSE(res->representative.empty());
  EXPECT_GE(res->seconds, 0.0);
}

TEST(SolverTest, AutoPicksMdrcForHigherDims) {
  const data::Dataset ds = data::GenerateUniform(50, 4, 2);
  RrrOptions opts;
  opts.k = 3;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->algorithm_used, Algorithm::kMdRc);
}

TEST(SolverTest, AutoPicksExactMaximaForKOneInHighDims) {
  // k = 1 in d >= 3 cannot terminate under MDRC's partition (disjoint
  // 1-sets); kAuto must route to the exact maxima solve instead.
  const data::Dataset ds = data::GenerateUniform(60, 3, 21);
  RrrOptions opts;
  opts.k = 1;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->algorithm_used, Algorithm::kConvexMaxima);
  // The result is exactly the convex maxima.
  Result<std::vector<int32_t>> direct =
      geometry::ConvexMaxima(ds.flat(), ds.size(), ds.dims());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(res->representative, *direct);
  // And it is a true order-1 representative on sampled functions.
  SampledRegretOptions eval_opts;
  eval_opts.num_functions = 2000;
  Result<int64_t> regret =
      SampledRankRegretEstimate(ds, res->representative, eval_opts);
  ASSERT_TRUE(regret.ok());
  EXPECT_EQ(*regret, 1);
}

TEST(SolverTest, AutoPrefers2DrrrOverMaximaForKOneInTwoDims) {
  // d == 2 with k == 1 satisfies both special rules; 2DRRR must win (it is
  // exact and size-optimal in 2D, and the maxima LP adds nothing there).
  const data::Dataset ds = data::GenerateUniform(60, 2, 31);
  RrrOptions opts;
  opts.k = 1;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->algorithm_used, Algorithm::k2dRrr);
}

TEST(SolverTest, AutoHandlesKAtLeastN) {
  // k >= n: every tuple is in every top-k, so any single item represents.
  for (size_t dims : {2u, 3u}) {
    const data::Dataset ds = data::GenerateUniform(12, dims, 32);
    for (size_t k : {ds.size(), 2 * ds.size()}) {
      RrrOptions opts;
      opts.k = k;
      Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
      ASSERT_TRUE(res.ok()) << "d=" << dims << " k=" << k;
      EXPECT_EQ(res->algorithm_used,
                dims == 2 ? Algorithm::k2dRrr : Algorithm::kMdRc);
      EXPECT_EQ(res->representative.size(), 1u);
    }
  }
}

TEST(SolverTest, AutoHandlesOneDimensionalData) {
  // d == 1: a single ranking function exists; its top-1 is the whole
  // answer for every k. kAuto routes to MDRC, whose d == 1 fast path
  // returns exactly that.
  Result<data::Dataset> ds =
      data::Dataset::FromRows({{0.3}, {0.9}, {0.1}, {0.7}});
  ASSERT_TRUE(ds.ok());
  for (size_t k : {1u, 3u, 10u}) {
    RrrOptions opts;
    opts.k = k;
    Result<RrrResult> res = FindRankRegretRepresentative(*ds, opts);
    ASSERT_TRUE(res.ok()) << "k=" << k;
    EXPECT_EQ(res->algorithm_used, Algorithm::kMdRc);
    EXPECT_EQ(res->representative, (std::vector<int32_t>{1}));
  }
}

TEST(SolverTest, DimensionMismatchErrorsAreInvalidArgument) {
  const data::Dataset ds3 = data::GenerateUniform(20, 3, 33);
  RrrOptions opts;
  opts.k = 2;
  opts.algorithm = Algorithm::k2dRrr;  // 2DRRR on d == 3
  Result<RrrResult> res = FindRankRegretRepresentative(ds3, opts);
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

  Result<data::Dataset> ds1 = data::Dataset::FromRows({{0.2}, {0.8}});
  ASSERT_TRUE(ds1.ok());
  res = FindRankRegretRepresentative(*ds1, opts);  // 2DRRR on d == 1
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

  opts.algorithm = Algorithm::kConvexMaxima;  // maxima with k > 1
  res = FindRankRegretRepresentative(ds3, opts);
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverTest, ConvexMaximaRejectsKGreaterThanOne) {
  const data::Dataset ds = data::GenerateUniform(20, 3, 22);
  RrrOptions opts;
  opts.k = 2;
  opts.algorithm = Algorithm::kConvexMaxima;
  EXPECT_FALSE(FindRankRegretRepresentative(ds, opts).ok());
}

TEST(SolverTest, ExplicitAlgorithmIsRespected) {
  const data::Dataset ds = data::GenerateUniform(80, 3, 3);
  RrrOptions opts;
  opts.k = 5;
  opts.algorithm = Algorithm::kMdRrr;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->algorithm_used, Algorithm::kMdRrr);
}

TEST(SolverTest, TwoDrrrOnHighDimsIsRejected) {
  const data::Dataset ds = data::GenerateUniform(20, 3, 4);
  RrrOptions opts;
  opts.k = 2;
  opts.algorithm = Algorithm::k2dRrr;
  EXPECT_FALSE(FindRankRegretRepresentative(ds, opts).ok());
}

TEST(SolverTest, RejectsBadArguments) {
  data::Dataset empty;
  RrrOptions opts;
  EXPECT_FALSE(FindRankRegretRepresentative(empty, opts).ok());
  const data::Dataset ds = data::GenerateUniform(10, 2, 5);
  opts.k = 0;
  EXPECT_FALSE(FindRankRegretRepresentative(ds, opts).ok());
}

TEST(SolverTest, RejectsNonFiniteData) {
  Result<data::Dataset> ds = data::Dataset::FromRows(
      {{0.5, 0.5}, {std::nan(""), 0.2}});
  ASSERT_TRUE(ds.ok());
  RrrOptions opts;
  opts.k = 1;
  Result<RrrResult> res = FindRankRegretRepresentative(*ds, opts);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverTest, ReportsElapsedTime) {
  const data::Dataset ds = data::GenerateUniform(500, 3, 23);
  RrrOptions opts;
  opts.k = 10;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_GE(res->seconds, 0.0);
  EXPECT_LT(res->seconds, 60.0);
}

TEST(SolverTest, AllAlgorithmsMeetTheirBoundsOnOneDataset) {
  const data::Dataset ds = data::GenerateUniform(80, 2, 6);
  const size_t k = 4;
  for (Algorithm algorithm :
       {Algorithm::k2dRrr, Algorithm::kMdRrr, Algorithm::kMdRc}) {
    RrrOptions opts;
    opts.k = k;
    opts.algorithm = algorithm;
    Result<RrrResult> res = FindRankRegretRepresentative(ds, opts);
    ASSERT_TRUE(res.ok()) << AlgorithmName(algorithm);
    Result<int64_t> regret =
        SweepExactRankRegret2D(ds, res->representative);
    ASSERT_TRUE(regret.ok());
    // Weakest common guarantee: d*k = 2k (2DRRR promises 2k, MDRC d*k;
    // MDRRR can exceed k only on k-sets its sample missed).
    EXPECT_LE(*regret, static_cast<int64_t>(2 * k))
        << AlgorithmName(algorithm);
  }
}

TEST(DualProblemTest, FindsSmallKForGenerousBudget) {
  const data::Dataset ds = data::GenerateUniform(200, 2, 7);
  RrrOptions base;
  Result<DualResult> dual = SolveDualProblem(ds, 8, base);
  ASSERT_TRUE(dual.ok());
  EXPECT_GE(dual->k, 1u);
  EXPECT_LE(dual->representative.size(), 8u);
  // Feasibility: re-solving at the returned k meets the budget.
  RrrOptions check = base;
  check.k = dual->k;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, check);
  ASSERT_TRUE(res.ok());
  EXPECT_LE(res->representative.size(), 8u);
}

TEST(DualProblemTest, TightBudgetNeedsLargerK) {
  const data::Dataset ds = data::GenerateAnticorrelated(300, 2, 8);
  RrrOptions base;
  Result<DualResult> tight = SolveDualProblem(ds, 2, base);
  Result<DualResult> loose = SolveDualProblem(ds, 12, base);
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_GE(tight->k, loose->k);
  EXPECT_LE(tight->representative.size(), 2u);
}

TEST(DualProblemTest, BudgetOfOneIsAlwaysFeasibleAtKEqualN) {
  // k = n makes any single item a representative, so max_size = 1 always
  // has a solution.
  const data::Dataset ds = data::GenerateUniform(60, 3, 9);
  RrrOptions base;
  Result<DualResult> dual = SolveDualProblem(ds, 1, base);
  ASSERT_TRUE(dual.ok());
  EXPECT_EQ(dual->representative.size(), 1u);
}

TEST(DualProblemTest, BudgetAtLeastNIsSatisfiedByKOne) {
  // max_size >= n: every k fits, so the search must return the smallest
  // k = 1 (and must not fall off either end of the binary search).
  const data::Dataset ds = data::GenerateUniform(40, 2, 11);
  RrrOptions base;
  for (size_t budget : {ds.size(), 2 * ds.size()}) {
    Result<DualResult> dual = SolveDualProblem(ds, budget, base);
    ASSERT_TRUE(dual.ok()) << "budget " << budget;
    EXPECT_EQ(dual->k, 1u);
    EXPECT_LE(dual->representative.size(), budget);
  }
}

TEST(DualProblemTest, SingletonDataset) {
  const data::Dataset ds = data::GenerateUniform(1, 3, 12);
  RrrOptions base;
  Result<DualResult> dual = SolveDualProblem(ds, 1, base);
  ASSERT_TRUE(dual.ok());
  EXPECT_EQ(dual->k, 1u);
  EXPECT_EQ(dual->representative, (std::vector<int32_t>{0}));
}

TEST(DualProblemTest, AllProbesExhaustedIsResourceExhaustedNotNotFound) {
  // With a zero node budget every MDRC probe dies with ResourceExhausted;
  // reporting NotFound ("no k met the size budget") would send the caller
  // to raise max_size when the actual failure is the solver budget.
  const data::Dataset ds = data::GenerateUniform(60, 3, 13);
  RrrOptions base;
  base.k = 2;  // force MDRC (kAuto picks it for d > 2, k > 1)
  base.algorithm = Algorithm::kMdRc;
  base.mdrc.max_nodes = 0;
  Result<DualResult> dual = SolveDualProblem(ds, 5, base);
  ASSERT_FALSE(dual.ok());
  EXPECT_EQ(dual.status().code(), StatusCode::kResourceExhausted);
}

TEST(DualProblemTest, PartialExhaustionStillFindsFeasibleK) {
  // Small-but-nonzero node budget: small-k probes exhaust, large-k probes
  // resolve quickly; the search must keep walking upward and succeed.
  const data::Dataset ds = data::GenerateUniform(120, 3, 14);
  RrrOptions base;
  base.algorithm = Algorithm::kMdRc;
  base.mdrc.max_nodes = 3000;
  Result<DualResult> dual = SolveDualProblem(ds, 6, base);
  ASSERT_TRUE(dual.ok());
  EXPECT_LE(dual->representative.size(), 6u);
  // Feasibility check at the returned k.
  RrrOptions check = base;
  check.k = dual->k;
  Result<RrrResult> res = FindRankRegretRepresentative(ds, check);
  ASSERT_TRUE(res.ok());
  EXPECT_LE(res->representative.size(), 6u);
}

TEST(DualProblemTest, RejectsBadArguments) {
  const data::Dataset ds = data::GenerateUniform(10, 2, 10);
  RrrOptions base;
  EXPECT_FALSE(SolveDualProblem(ds, 0, base).ok());
  data::Dataset empty;
  EXPECT_FALSE(SolveDualProblem(empty, 3, base).ok());
}

}  // namespace
}  // namespace core
}  // namespace rrr
