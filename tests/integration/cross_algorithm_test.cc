// Cross-checks between independent implementations of the same quantities:
// the strongest class of tests in the suite (two algorithms must agree, or
// one bounds the other by a theorem).
#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/kset_enum2d.h"
#include "core/kset_graph.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "data/generators.h"
#include "hitting/greedy.h"
#include "test_util.h"

namespace rrr {
namespace {

class CrossAlgorithm2DTest : public ::testing::TestWithParam<int> {
 protected:
  data::Dataset MakeData() const {
    return data::GenerateUniform(80, 2, static_cast<uint64_t>(GetParam()));
  }
};

TEST_P(CrossAlgorithm2DTest, MdrrrNeverBeatsExactHittingSetSize) {
  const data::Dataset ds = MakeData();
  const size_t k = 3;
  Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds, k);
  ASSERT_TRUE(ksets.ok());
  Result<std::vector<int32_t>> mdrrr = core::SolveMdrrr(ds, *ksets);
  ASSERT_TRUE(mdrrr.ok());
  Result<std::vector<int32_t>> exact =
      hitting::ExactHittingSet(ksets->ToSetSystem(), 1u << 22);
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(mdrrr->size(), exact->size());
}

TEST_P(CrossAlgorithm2DTest, TwoDrrrSizeAtMostExactKHittingSetSize) {
  // The optimal hitting set of the k-set collection is a valid RRR with
  // regret exactly <= k, so 2DRRR (Theorem 3: <= OPT) can never be larger.
  const data::Dataset ds = MakeData();
  const size_t k = 3;
  Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds, k);
  ASSERT_TRUE(ksets.ok());
  Result<std::vector<int32_t>> exact =
      hitting::ExactHittingSet(ksets->ToSetSystem(), 1u << 22);
  ASSERT_TRUE(exact.ok());
  Result<std::vector<int32_t>> rrr2d = core::Solve2dRrr(ds, k);
  ASSERT_TRUE(rrr2d.ok());
  EXPECT_LE(rrr2d->size(), exact->size());
}

TEST_P(CrossAlgorithm2DTest, AllAlgorithmsStayWithinTheirRegretBounds) {
  const data::Dataset ds = MakeData();
  for (size_t k : {1u, 4u}) {
    Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds, k);
    ASSERT_TRUE(ksets.ok());

    Result<std::vector<int32_t>> rrr2d = core::Solve2dRrr(ds, k);
    Result<std::vector<int32_t>> mdrrr = core::SolveMdrrr(ds, *ksets);
    Result<std::vector<int32_t>> mdrc = core::SolveMdrc(ds, k);
    ASSERT_TRUE(rrr2d.ok());
    ASSERT_TRUE(mdrrr.ok());
    ASSERT_TRUE(mdrc.ok());

    EXPECT_LE(*core::SweepExactRankRegret2D(ds, *rrr2d),
              static_cast<int64_t>(2 * k));
    EXPECT_LE(*core::SweepExactRankRegret2D(ds, *mdrrr),
              static_cast<int64_t>(k));
    EXPECT_LE(*core::SweepExactRankRegret2D(ds, *mdrc),
              static_cast<int64_t>(2 * k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossAlgorithm2DTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(CrossAlgorithm3DTest, SamplerPlusGraphAgreeOnSmallInput) {
  const data::Dataset ds = data::GenerateUniform(12, 3, 55);
  const size_t k = 2;
  Result<core::KSetCollection> graph = core::EnumerateKSetsGraph(ds, k);
  ASSERT_TRUE(graph.ok());
  core::KSetSamplerOptions opts;
  opts.termination_count = 5000;
  Result<core::KSetSampleResult> sampled = core::SampleKSets(ds, k, opts);
  ASSERT_TRUE(sampled.ok());
  // Patient sampling on a tiny instance finds every k-set with an interior
  // witness region; graph enumeration may additionally contain boundary
  // cases, so sampled <= graph with containment.
  EXPECT_LE(sampled->ksets.size(), graph->size());
  for (const core::KSet& s : sampled->ksets.sets()) {
    EXPECT_TRUE(graph->Contains(s));
  }
  EXPECT_GE(sampled->ksets.size(), graph->size() - 1);
}

TEST(CrossAlgorithmMDTest, MdrcAndMdrrrBothCoverSampledFunctions) {
  const data::Dataset ds = data::GenerateDotLike(400, 66).ProjectPrefix(4);
  const size_t k = 20;
  Result<std::vector<int32_t>> mdrc = core::SolveMdrc(ds, k);
  Result<std::vector<int32_t>> mdrrr = core::SolveMdrrrSampled(ds, k);
  ASSERT_TRUE(mdrc.ok());
  ASSERT_TRUE(mdrrr.ok());
  core::SampledRegretOptions eval_opts;
  eval_opts.num_functions = 2000;
  eval_opts.seed = 4242;
  EXPECT_LE(*core::SampledRankRegretEstimate(ds, *mdrc, eval_opts),
            static_cast<int64_t>(4 * k));
  EXPECT_LE(*core::SampledRankRegretEstimate(ds, *mdrrr, eval_opts),
            static_cast<int64_t>(2 * k));
}

}  // namespace
}  // namespace rrr
