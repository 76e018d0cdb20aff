// Randomized cross-invariant harness: every workload family x seed runs the
// full algorithm suite and checks the paper's guarantees in one sweep.
// Complements the per-module tests with distribution diversity.
#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/kset_enum2d.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "core/solver.h"
#include "data/generators.h"
#include "geometry/dominance.h"
#include "test_util.h"

namespace rrr {
namespace {

enum class Family {
  kUniform,
  kCorrelated,
  kAnticorrelated,
  kClustered,
  kDotLike,
  kBnLike,
};

data::Dataset Generate(Family family, size_t n, size_t d, uint64_t seed) {
  switch (family) {
    case Family::kUniform:
      return data::GenerateUniform(n, d, seed);
    case Family::kCorrelated:
      return data::GenerateCorrelated(n, d, seed, 0.8);
    case Family::kAnticorrelated:
      return data::GenerateAnticorrelated(n, d, seed);
    case Family::kClustered:
      return data::GenerateClustered(n, d, seed, 4);
    case Family::kDotLike:
      return data::GenerateDotLike(n, seed).ProjectPrefix(d);
    case Family::kBnLike:
      return data::GenerateBnLike(n, seed).ProjectPrefix(d);
  }
  return data::GenerateUniform(n, d, seed);
}

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kUniform:
      return "uniform";
    case Family::kCorrelated:
      return "correlated";
    case Family::kAnticorrelated:
      return "anticorrelated";
    case Family::kClustered:
      return "clustered";
    case Family::kDotLike:
      return "dot-like";
    case Family::kBnLike:
      return "bn-like";
  }
  return "?";
}

class PropertyHarness2DTest
    : public ::testing::TestWithParam<std::tuple<Family, int>> {};

TEST_P(PropertyHarness2DTest, AllGuaranteesHoldIn2D) {
  const auto [family, seed] = GetParam();
  SCOPED_TRACE(FamilyName(family));
  const data::Dataset ds =
      Generate(family, 120, 2, static_cast<uint64_t>(seed));
  const size_t k = 4;

  // 2DRRR: regret <= 2k, and size <= |exact k-hitting set|.
  Result<std::vector<int32_t>> rrr2d = core::Solve2dRrr(ds, k);
  ASSERT_TRUE(rrr2d.ok());
  Result<int64_t> regret_2d = core::SweepExactRankRegret2D(ds, *rrr2d);
  ASSERT_TRUE(regret_2d.ok());
  EXPECT_LE(*regret_2d, static_cast<int64_t>(2 * k));

  // MDRRR on exact 2D k-sets: regret <= k.
  Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds, k);
  ASSERT_TRUE(ksets.ok());
  Result<std::vector<int32_t>> mdrrr = core::SolveMdrrr(ds, *ksets);
  ASSERT_TRUE(mdrrr.ok());
  Result<int64_t> regret_mdrrr = core::SweepExactRankRegret2D(ds, *mdrrr);
  ASSERT_TRUE(regret_mdrrr.ok());
  EXPECT_LE(*regret_mdrrr, static_cast<int64_t>(k));

  // MDRC: regret <= d*k = 2k.
  Result<std::vector<int32_t>> mdrc = core::SolveMdrc(ds, k);
  ASSERT_TRUE(mdrc.ok());
  Result<int64_t> regret_mdrc = core::SweepExactRankRegret2D(ds, *mdrc);
  ASSERT_TRUE(regret_mdrc.ok());
  EXPECT_LE(*regret_mdrc, static_cast<int64_t>(2 * k));

  // Every k-set member must be inside the k-skyband (soundness chain).
  const std::vector<int32_t> band =
      geometry::KSkyband(ds.flat(), ds.size(), ds.dims(), k);
  for (const core::KSet& s : ksets->sets()) {
    for (int32_t id : s.ids) {
      EXPECT_TRUE(std::binary_search(band.begin(), band.end(), id));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PropertyHarness2DTest,
    ::testing::Combine(
        ::testing::Values(Family::kUniform, Family::kCorrelated,
                          Family::kAnticorrelated, Family::kClustered,
                          Family::kDotLike, Family::kBnLike),
        ::testing::Values(1, 2)));

class PropertyHarnessMDTest
    : public ::testing::TestWithParam<std::tuple<Family, int>> {};

TEST_P(PropertyHarnessMDTest, AllGuaranteesHoldIn4D) {
  const auto [family, seed] = GetParam();
  SCOPED_TRACE(FamilyName(family));
  const data::Dataset ds =
      Generate(family, 400, 4, static_cast<uint64_t>(seed));
  const size_t k = 16;  // 4% of n

  core::RrrOptions opts;
  opts.k = k;
  core::SampledRegretOptions eval_opts;
  eval_opts.num_functions = 800;

  for (core::Algorithm algorithm :
       {core::Algorithm::kMdRc, core::Algorithm::kMdRrr}) {
    opts.algorithm = algorithm;
    Result<core::RrrResult> res =
        core::FindRankRegretRepresentative(ds, opts);
    ASSERT_TRUE(res.ok()) << core::AlgorithmName(algorithm);
    Result<int64_t> rank_regret = core::SampledRankRegretEstimate(
        ds, res->representative, eval_opts);
    ASSERT_TRUE(rank_regret.ok());
    // d*k bound on the sampled estimate for MDRC; MDRRR's k-guarantee is
    // per-sampled-k-set, so d*k is a safe common envelope here too.
    EXPECT_LE(*rank_regret, static_cast<int64_t>(4 * k))
        << core::AlgorithmName(algorithm);
    EXPECT_LT(res->representative.size(), ds.size() / 4)
        << core::AlgorithmName(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PropertyHarnessMDTest,
    ::testing::Combine(
        ::testing::Values(Family::kUniform, Family::kCorrelated,
                          Family::kAnticorrelated, Family::kClustered,
                          Family::kDotLike, Family::kBnLike),
        ::testing::Values(1, 2)));

}  // namespace
}  // namespace rrr
