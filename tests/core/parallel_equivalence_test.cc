// threads = 1 must reproduce the serial solver bit-for-bit, and threads = N
// must reproduce threads = 1: parallelism in this library only reorders
// internal evaluation, never the result. These tests pin that contract for
// every parallelized hot path (MDRC, K-SETr/MDRRR, the evaluators, and the
// convex-maxima LP loop).
#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/evaluator.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/solver.h"
#include "data/generators.h"
#include "eval/rank_regret.h"
#include "geometry/convex_hull.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

constexpr size_t kThreads = 4;  // oversubscribes small CI machines: fine

TEST(ParallelEquivalenceTest, MdrcIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {7u, 21u}) {
    const data::Dataset ds =
        data::GenerateDotLike(2000, seed).ProjectPrefix(4);
    MdrcOptions serial;
    serial.threads = 1;
    MdrcOptions parallel;
    parallel.threads = kThreads;
    Result<std::vector<int32_t>> a = SolveMdrc(ds, 40, serial);
    Result<std::vector<int32_t>> b = SolveMdrc(ds, 40, parallel);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "seed " << seed;
  }
}

TEST(ParallelEquivalenceTest, MdrcReuseChosenOrderDependenceIsPreserved) {
  // reuse_chosen makes every leaf decision depend on all earlier leaves —
  // the hardest case for parallel equivalence (the replay must walk leaves
  // in exactly the serial traversal order).
  const data::Dataset ds = data::GenerateBnLike(900, 3).ProjectPrefix(5);
  for (bool reuse : {true, false}) {
    MdrcOptions serial;
    serial.threads = 1;
    serial.reuse_chosen = reuse;
    MdrcOptions parallel = serial;
    parallel.threads = kThreads;
    Result<std::vector<int32_t>> a = SolveMdrc(ds, 60, serial);
    Result<std::vector<int32_t>> b = SolveMdrc(ds, 60, parallel);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "reuse_chosen = " << reuse;
  }
}

TEST(ParallelEquivalenceTest, MdrcStructuralStatsMatch) {
  const data::Dataset ds = data::GenerateUniform(500, 3, 11);
  MdrcOptions serial;
  serial.threads = 1;
  MdrcOptions parallel;
  parallel.threads = kThreads;
  MdrcStats s1, sN;
  ASSERT_TRUE(SolveMdrc(ds, 10, serial, &s1).ok());
  ASSERT_TRUE(SolveMdrc(ds, 10, parallel, &sN).ok());
  // The partition tree is identical; only cache hit/eval counts may drift
  // under concurrency (racing threads can evaluate a corner twice).
  EXPECT_EQ(s1.nodes, sN.nodes);
  EXPECT_EQ(s1.leaves, sN.leaves);
  EXPECT_EQ(s1.depth_cap_leaves, sN.depth_cap_leaves);
  EXPECT_EQ(s1.max_depth, sN.max_depth);
  EXPECT_EQ(s1.corner_evals + s1.cache_hits, sN.corner_evals + sN.cache_hits);
}

TEST(ParallelEquivalenceTest, MdrcResourceExhaustionAgreesAcrossThreads) {
  const data::Dataset ds = data::GenerateUniform(300, 5, 3);
  MdrcOptions serial;
  serial.threads = 1;
  serial.max_nodes = 2000;
  MdrcOptions parallel = serial;
  parallel.threads = kThreads;
  Result<std::vector<int32_t>> a = SolveMdrc(ds, 2, serial);
  Result<std::vector<int32_t>> b = SolveMdrc(ds, 2, parallel);
  EXPECT_FALSE(a.ok());
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParallelEquivalenceTest, KSetSamplerIdenticalAcrossThreadCounts) {
  const data::Dataset ds = data::GenerateDotLike(600, 5).ProjectPrefix(3);
  KSetSamplerOptions serial;
  serial.seed = 99;
  serial.threads = 1;
  serial.termination_count = 60;
  KSetSamplerOptions parallel = serial;
  parallel.threads = kThreads;
  Result<KSetSampleResult> a = SampleKSets(ds, 12, serial);
  Result<KSetSampleResult> b = SampleKSets(ds, 12, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->samples_drawn, b->samples_drawn);
  ASSERT_EQ(a->ksets.size(), b->ksets.size());
  // Insertion order (not just the set) must match: the hitting-set stage
  // is sensitive to it.
  for (size_t i = 0; i < a->ksets.size(); ++i) {
    EXPECT_EQ(a->ksets.sets()[i].ids, b->ksets.sets()[i].ids) << "set " << i;
  }
}

TEST(ParallelEquivalenceTest, KSetSamplerOptionsComposeWithThreads) {
  const data::Dataset ds = data::GenerateCorrelated(400, 3, 17);
  KSetSamplerOptions serial;
  serial.threads = 1;
  serial.termination_count = 40;
  KSetSamplerOptions parallel = serial;
  parallel.threads = kThreads;
  Result<KSetSampleResult> a = SampleKSets(ds, 8, serial);
  Result<KSetSampleResult> b = SampleKSets(ds, 8, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ksets.size(), b->ksets.size());
  for (size_t i = 0; i < a->ksets.size(); ++i) {
    EXPECT_EQ(a->ksets.sets()[i].ids, b->ksets.sets()[i].ids);
  }
}

TEST(ParallelEquivalenceTest, MdrrrIdenticalAcrossThreadCounts) {
  const data::Dataset ds = data::GenerateDotLike(500, 31).ProjectPrefix(3);
  KSetSamplerOptions serial;
  serial.threads = 1;
  KSetSamplerOptions parallel = serial;
  parallel.threads = kThreads;
  Result<std::vector<int32_t>> a = SolveMdrrrSampled(ds, 10, {}, serial);
  Result<std::vector<int32_t>> b = SolveMdrrrSampled(ds, 10, {}, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(ParallelEquivalenceTest, SampledRankRegretIdenticalAcrossThreadCounts) {
  const data::Dataset ds = data::GenerateUniform(800, 4, 5);
  const std::vector<int32_t> subset = {1, 100, 250, 600};
  SampledRegretOptions serial;
  serial.num_functions = 3000;
  serial.threads = 1;
  SampledRegretOptions parallel = serial;
  parallel.threads = kThreads;
  Result<int64_t> a = SampledRankRegretEstimate(ds, subset, serial);
  Result<int64_t> b = SampledRankRegretEstimate(ds, subset, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(ParallelEquivalenceTest, ExactWithinKIdenticalAcrossThreadCounts) {
  const data::Dataset ds = testing::PaperFigure1Dataset();
  // A subset that misses some 2-set: both paths must produce the same
  // verdict and the same witness (first missed set in enumeration order).
  const std::vector<int32_t> subset = {0};
  Result<eval::RankRegretCertificate> a =
      eval::ExactRankRegretWithinK(ds, subset, 2, 1);
  Result<eval::RankRegretCertificate> b =
      eval::ExactRankRegretWithinK(ds, subset, 2, kThreads);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->within_k, b->within_k);
  EXPECT_EQ(a->witness_rank, b->witness_rank);
  EXPECT_EQ(a->witness_weights, b->witness_weights);
}

TEST(ParallelEquivalenceTest, ConvexMaximaIdenticalAcrossThreadCounts) {
  const data::Dataset ds = data::GenerateAnticorrelated(300, 3, 9);
  Result<std::vector<int32_t>> a =
      geometry::ConvexMaxima(ds.flat(), ds.size(), ds.dims(), 1);
  Result<std::vector<int32_t>> b =
      geometry::ConvexMaxima(ds.flat(), ds.size(), ds.dims(), kThreads);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(ParallelEquivalenceTest, FacadeThreadsOverrideProducesSameResult) {
  const data::Dataset ds = data::GenerateUniform(400, 3, 13);
  RrrOptions serial;
  serial.k = 8;
  serial.threads = 1;
  RrrOptions parallel = serial;
  parallel.threads = kThreads;
  Result<RrrResult> a = FindRankRegretRepresentative(ds, serial);
  Result<RrrResult> b = FindRankRegretRepresentative(ds, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->algorithm_used, b->algorithm_used);
  EXPECT_EQ(a->representative, b->representative);
}

}  // namespace
}  // namespace core
}  // namespace rrr
