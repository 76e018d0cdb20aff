#include "eval/metrics.h"

#include <numeric>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "data/generators.h"
#include "eval/regret_ratio.h"
#include "test_util.h"

namespace rrr {
namespace eval {
namespace {

TEST(EvaluateTest, FullDatasetIsPerfect) {
  const data::Dataset ds = data::GenerateUniform(30, 3, 1);
  std::vector<int32_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  Result<EvaluationReport> report = Evaluate(ds, all);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->size, 30u);
  EXPECT_EQ(report->rank_regret, 1);
  EXPECT_DOUBLE_EQ(report->mean_rank, 1.0);
  EXPECT_DOUBLE_EQ(report->regret_ratio, 0.0);
  EXPECT_DOUBLE_EQ(report->topk_hit_rate, 1.0);
}

TEST(EvaluateTest, MatchesStandaloneEvaluators) {
  // Same seed and function count as the standalone estimators: the report
  // must agree with both.
  const data::Dataset ds = data::GenerateUniform(80, 3, 2);
  const std::vector<int32_t> subset = {5, 40, 77};
  EvaluateOptions opts;
  opts.num_functions = 800;
  opts.seed = 99;
  Result<EvaluationReport> report = Evaluate(ds, subset, opts);
  ASSERT_TRUE(report.ok());

  core::SampledRegretOptions rank_opts;
  rank_opts.num_functions = 800;
  rank_opts.seed = 99;
  EXPECT_EQ(report->rank_regret,
            *core::SampledRankRegretEstimate(ds, subset, rank_opts));

  RegretRatioOptions ratio_opts;
  ratio_opts.num_functions = 800;
  ratio_opts.seed = 99;
  EXPECT_DOUBLE_EQ(report->regret_ratio,
                   *SampledRegretRatio(ds, subset, ratio_opts));
}

TEST(EvaluateTest, HitRateReflectsK) {
  const data::Dataset ds = data::GenerateUniform(100, 2, 3);
  const std::vector<int32_t> subset = {10, 60};
  EvaluateOptions strict;
  strict.k = 1;
  EvaluateOptions loose;
  loose.k = 100;
  Result<EvaluationReport> a = Evaluate(ds, subset, strict);
  Result<EvaluationReport> b = Evaluate(ds, subset, loose);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a->topk_hit_rate, b->topk_hit_rate);
  EXPECT_DOUBLE_EQ(b->topk_hit_rate, 1.0);  // k = n always hits
}

TEST(EvaluateTest, MeanNeverExceedsMax) {
  const data::Dataset ds = data::GenerateUniform(70, 4, 4);
  Result<EvaluationReport> report = Evaluate(ds, {1, 2, 3});
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->mean_rank,
            static_cast<double>(report->rank_regret));
  EXPECT_GE(report->mean_rank, 1.0);
}

TEST(EvaluateTest, ToStringHasAllFields) {
  EvaluationReport r;
  r.size = 5;
  r.rank_regret = 12;
  r.mean_rank = 3.1;
  r.regret_ratio = 0.08;
  r.topk_hit_rate = 0.97;
  const std::string s = ToString(r);
  EXPECT_NE(s.find("size=5"), std::string::npos);
  EXPECT_NE(s.find("rank_regret=12"), std::string::npos);
  EXPECT_NE(s.find("hit_rate=0.970"), std::string::npos);
}

TEST(EvaluateTest, RejectsBadArguments) {
  const data::Dataset ds = data::GenerateUniform(10, 2, 5);
  EXPECT_FALSE(Evaluate(ds, {}).ok());
  EXPECT_FALSE(Evaluate(ds, {55}).ok());
  EvaluateOptions opts;
  opts.k = 0;
  EXPECT_FALSE(Evaluate(ds, {0}, opts).ok());
  opts.k = 1;
  opts.num_functions = 0;
  EXPECT_FALSE(Evaluate(ds, {0}, opts).ok());
}

}  // namespace
}  // namespace eval
}  // namespace rrr
