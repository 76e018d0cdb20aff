#include "core/kset_sampler.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/kset_enum2d.h"
#include "core/kset_graph.h"
#include "data/generators.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

TEST(KSetSamplerTest, RejectsBadArguments) {
  data::Dataset ds = data::GenerateUniform(10, 2, 1);
  EXPECT_FALSE(SampleKSets(ds, 0).ok());
  data::Dataset empty;
  EXPECT_FALSE(SampleKSets(empty, 2).ok());
}

TEST(KSetSamplerTest, DeterministicUnderSeed) {
  const data::Dataset ds = data::GenerateUniform(50, 3, 2);
  KSetSamplerOptions opts;
  opts.seed = 7;
  Result<KSetSampleResult> a = SampleKSets(ds, 5, opts);
  Result<KSetSampleResult> b = SampleKSets(ds, 5, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->samples_drawn, b->samples_drawn);
  ASSERT_EQ(a->ksets.size(), b->ksets.size());
  for (size_t i = 0; i < a->ksets.size(); ++i) {
    EXPECT_EQ(a->ksets.sets()[i].ids, b->ksets.sets()[i].ids);
  }
}

TEST(KSetSamplerTest, AllSampledSetsHaveSizeK) {
  const data::Dataset ds = data::GenerateUniform(60, 3, 3);
  const size_t k = 4;
  Result<KSetSampleResult> sample = SampleKSets(ds, k);
  ASSERT_TRUE(sample.ok());
  EXPECT_FALSE(sample->ksets.empty());
  for (const KSet& s : sample->ksets.sets()) {
    EXPECT_EQ(s.ids.size(), k);
    EXPECT_TRUE(std::is_sorted(s.ids.begin(), s.ids.end()));
  }
}

TEST(KSetSamplerTest, SubsetOfExact2DEnumeration) {
  // K-SETr can only find true k-sets (Lemma 5), never spurious ones.
  const data::Dataset ds = data::GenerateUniform(60, 2, 4);
  const size_t k = 3;
  Result<KSetCollection> exact = EnumerateKSets2D(ds, k);
  Result<KSetSampleResult> sample = SampleKSets(ds, k);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sample.ok());
  EXPECT_LE(sample->ksets.size(), exact->size());
  for (const KSet& s : sample->ksets.sets()) {
    EXPECT_TRUE(exact->Contains(s));
  }
}

TEST(KSetSamplerTest, FindsEverythingOnTinyInputsWithPatience) {
  // With a generous termination budget the coupon collector finds the whole
  // (small) collection.
  const data::Dataset ds = data::GenerateUniform(14, 2, 5);
  const size_t k = 2;
  Result<KSetCollection> exact = EnumerateKSets2D(ds, k);
  KSetSamplerOptions opts;
  opts.termination_count = 3000;
  Result<KSetSampleResult> sample = SampleKSets(ds, k, opts);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->ksets.size(), exact->size());
}

TEST(KSetSamplerTest, SubsetOfExactGraphEnumerationIn3D) {
  const data::Dataset ds = data::GenerateUniform(14, 3, 6);
  const size_t k = 2;
  Result<KSetCollection> exact = EnumerateKSetsGraph(ds, k);
  Result<KSetSampleResult> sample = SampleKSets(ds, k);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sample.ok());
  for (const KSet& s : sample->ksets.sets()) {
    EXPECT_TRUE(exact->Contains(s));
  }
}

TEST(KSetSamplerTest, TerminationCountStopsEarly) {
  const data::Dataset ds = data::GenerateUniform(300, 3, 7);
  KSetSamplerOptions patient;
  patient.termination_count = 200;
  KSetSamplerOptions hasty;
  hasty.termination_count = 5;
  Result<KSetSampleResult> a = SampleKSets(ds, 10, patient);
  Result<KSetSampleResult> b = SampleKSets(ds, 10, hasty);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a->ksets.size(), b->ksets.size());
  EXPECT_GE(a->samples_drawn, b->samples_drawn);
}

TEST(KSetSamplerTest, MaxSamplesCapIsHonored) {
  const data::Dataset ds = data::GenerateAnticorrelated(500, 4, 8);
  KSetSamplerOptions opts;
  opts.max_samples = 50;
  opts.termination_count = 1000000;
  Result<KSetSampleResult> sample = SampleKSets(ds, 20, opts);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->samples_drawn, 50u);
}

TEST(KSetSamplerTest, KGreaterEqualNGivesOneSet) {
  const data::Dataset ds = data::GenerateUniform(10, 3, 9);
  Result<KSetSampleResult> sample = SampleKSets(ds, 10);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->ksets.size(), 1u);
  EXPECT_EQ(sample->ksets.sets()[0].ids.size(), 10u);
}

}  // namespace
}  // namespace core
}  // namespace rrr
