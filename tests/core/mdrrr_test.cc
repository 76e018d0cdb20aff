#include "core/mdrrr.h"

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/kset_enum2d.h"
#include "core/kset_graph.h"
#include "data/generators.h"
#include "hitting/greedy.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

TEST(MdrrrTest, RejectsBadArguments) {
  data::Dataset ds = data::GenerateUniform(10, 2, 1);
  KSetCollection empty;
  EXPECT_FALSE(SolveMdrrr(ds, empty).ok());
  data::Dataset no_rows;
  KSetCollection some;
  some.Insert(KSet{{0}});
  EXPECT_FALSE(SolveMdrrr(no_rows, some).ok());
}

TEST(MdrrrTest, PaperExampleHitsAllTwoSets) {
  // k-sets {t1,t7}, {t7,t3}, {t3,t5}: {t7, t3} (or {t7, t5}, ...) hits all;
  // minimum hitting set size is 2.
  data::Dataset ds = testing::PaperFigure1Dataset();
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, 2);
  ASSERT_TRUE(ksets.ok());
  for (HittingStrategy strategy :
       {HittingStrategy::kEpsNet, HittingStrategy::kGreedy}) {
    MdrrrOptions opts;
    opts.strategy = strategy;
    Result<std::vector<int32_t>> rep = SolveMdrrr(ds, *ksets, opts);
    ASSERT_TRUE(rep.ok());
    EXPECT_TRUE(ksets->ToSetSystem().IsHit(*rep));
    // Exact guarantee (Section 5.2): rank-regret <= k with the complete
    // k-set collection.
    Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
    ASSERT_TRUE(regret.ok());
    EXPECT_LE(*regret, 2);
  }
}

class MdrrrGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MdrrrGuaranteeTest, ExactCollectionGivesRankRegretAtMostK) {
  const auto [seed, k] = GetParam();
  const data::Dataset ds =
      data::GenerateUniform(60, 2, static_cast<uint64_t>(seed));
  Result<KSetCollection> ksets =
      EnumerateKSets2D(ds, static_cast<size_t>(k));
  ASSERT_TRUE(ksets.ok());
  Result<std::vector<int32_t>> rep = SolveMdrrr(ds, *ksets);
  ASSERT_TRUE(rep.ok());
  Result<int64_t> regret = SweepExactRankRegret2D(ds, *rep);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, k);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, MdrrrGuaranteeTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 3, 8)));

TEST(MdrrrTest, ThreeDExactCollectionSatisfiesSampledRegret) {
  const data::Dataset ds = data::GenerateUniform(18, 3, 5);
  const size_t k = 3;
  Result<KSetCollection> ksets = EnumerateKSetsGraph(ds, k);
  ASSERT_TRUE(ksets.ok());
  Result<std::vector<int32_t>> rep = SolveMdrrr(ds, *ksets);
  ASSERT_TRUE(rep.ok());
  SampledRegretOptions eval_opts;
  eval_opts.num_functions = 5000;
  Result<int64_t> regret = SampledRankRegretEstimate(ds, *rep, eval_opts);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, static_cast<int64_t>(k));
}

TEST(MdrrrTest, SampledPipelineHitsItsOwnSample) {
  const data::Dataset ds = data::GenerateUniform(200, 3, 6);
  const size_t k = 10;
  KSetSamplerOptions sampler;
  sampler.seed = 42;
  Result<KSetSampleResult> sample = SampleKSets(ds, k, sampler);
  ASSERT_TRUE(sample.ok());
  Result<std::vector<int32_t>> rep = SolveMdrrr(ds, sample->ksets);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(sample->ksets.ToSetSystem().IsHit(*rep));
  // Regret measured with the *same* function distribution stays around k;
  // allow slack for k-sets the sampler missed (Section 5.2.1).
  SampledRegretOptions eval_opts;
  eval_opts.num_functions = 2000;
  eval_opts.seed = 999;
  Result<int64_t> regret = SampledRankRegretEstimate(ds, *rep, eval_opts);
  ASSERT_TRUE(regret.ok());
  EXPECT_LE(*regret, static_cast<int64_t>(2 * k));
}

TEST(MdrrrTest, GreedyAndEpsNetBothHit) {
  const data::Dataset ds = data::GenerateUniform(100, 2, 7);
  Result<KSetCollection> ksets = EnumerateKSets2D(ds, 5);
  ASSERT_TRUE(ksets.ok());
  MdrrrOptions greedy;
  greedy.strategy = HittingStrategy::kGreedy;
  MdrrrOptions epsnet;
  epsnet.strategy = HittingStrategy::kEpsNet;
  Result<std::vector<int32_t>> a = SolveMdrrr(ds, *ksets, greedy);
  Result<std::vector<int32_t>> b = SolveMdrrr(ds, *ksets, epsnet);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const hitting::SetSystem sys = ksets->ToSetSystem();
  EXPECT_TRUE(sys.IsHit(*a));
  EXPECT_TRUE(sys.IsHit(*b));
}

TEST(MdrrrTest, SolveMdrrrSampledEndToEnd) {
  const data::Dataset ds = data::GenerateDotLike(150, 8).ProjectPrefix(3);
  Result<std::vector<int32_t>> rep = SolveMdrrrSampled(ds, 5);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->empty());
  EXPECT_LT(rep->size(), ds.size() / 2);
}

}  // namespace
}  // namespace core
}  // namespace rrr
