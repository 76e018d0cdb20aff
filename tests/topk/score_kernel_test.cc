// The blocked columnar scoring kernel carries the library's strongest
// contract: the blocked scalar and SIMD paths produce scores BIT-IDENTICAL
// to LinearFunction::Score's row loop (EXPECT_EQ on doubles, never a
// tolerance), and every scan and consumer over the mirror matches the
// brute-force row-loop oracles of test_util — including zero-weight
// functions, duplicate-heavy rows, denormal-adjacent magnitudes, and
// multiple thread counts.
#include "topk/score_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/candidate_index.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/rrr2d.h"
#include "core/sweep.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "eval/rank_regret.h"
#include "eval/regret_ratio.h"
#include "topk/rank.h"
#include "test_util.h"

namespace rrr {
namespace topk {
namespace {

data::ColumnBlocks MustBuild(const data::Dataset& ds) {
  return testing::MustBuildBlocks(ds);
}

struct Family {
  std::string name;
  data::Dataset data;
};

/// Dataset families that stress the kernel: plain uniform, tie-heavy
/// duplicates (quantized coordinates), a constant column (zero-information
/// attribute), and denormal-adjacent magnitudes where one wrong rounding —
/// e.g. a fused multiply-add in one path only — flips score comparisons.
std::vector<Family> Families(size_t n, size_t d, uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"uniform", data::GenerateUniform(n, d, seed)});
  {
    const data::Dataset pool = data::GenerateUniform(n / 8 + 2, d, seed + 1);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double* r = pool.row(i % pool.size());
      std::vector<double> row(r, r + d);
      for (double& v : row) v = std::round(v * 8.0) / 8.0;
      rows.push_back(std::move(row));
    }
    families.push_back({"duplicate-heavy", testing::MakeDataset(rows)});
  }
  {
    const data::Dataset base = data::GenerateUniform(n, d, seed + 2);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double* r = base.row(i);
      std::vector<double> row(r, r + d);
      row[0] = 0.5;
      rows.push_back(std::move(row));
    }
    families.push_back({"constant-column", testing::MakeDataset(rows)});
  }
  {
    // Magnitudes straddling the denormal range: tiny * tiny products
    // denormalize, and mixed-magnitude accumulation is where altered
    // operation order or fused rounding would show first.
    Rng rng(seed + 3);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    const double scales[] = {1e-300, 5e-324, 1e-160, 1.0, 1e3};
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> row(d);
      for (size_t j = 0; j < d; ++j) {
        row[j] = rng.Uniform() * scales[(i + j) % 5];
      }
      rows.push_back(std::move(row));
    }
    families.push_back({"denormal-adjacent", testing::MakeDataset(rows)});
  }
  return families;
}

/// Probe functions stressing the tie order: every axis (zero weights), the
/// diagonal, and random draws.
std::vector<LinearFunction> ProbeFunctions(size_t d, uint64_t seed) {
  std::vector<LinearFunction> funcs;
  for (size_t axis = 0; axis < d; ++axis) {
    geometry::Vec w(d, 0.0);
    w[axis] = 1.0;
    funcs.emplace_back(std::move(w));
  }
  funcs.emplace_back(geometry::Vec(d, 1.0));
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    funcs.emplace_back(rng.UnitWeightVector(static_cast<int>(d)));
  }
  return funcs;
}

TEST(ScoreKernelTest, ScalarBlockedMatchesRowLoopBitExactly) {
  for (size_t d : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (const Family& family : Families(300, d, 17)) {
      const data::ColumnBlocks blocks = MustBuild(family.data);
      std::vector<double> buf(data::ColumnBlocks::kBlockRows);
      for (const LinearFunction& f : ProbeFunctions(d, 29)) {
        for (size_t b = 0; b < blocks.num_blocks(); ++b) {
          ScoreBlockScalar(f.weights().data(), d, blocks.block(b),
                           buf.data());
          for (size_t lane = 0; lane < blocks.block_rows(b); ++lane) {
            const size_t i = b * data::ColumnBlocks::kBlockRows + lane;
            EXPECT_EQ(buf[lane], f.Score(family.data.row(i)))
                << family.name << " d=" << d << " row " << i;
          }
        }
      }
    }
  }
}

TEST(ScoreKernelTest, SimdMatchesScalarBitExactly) {
  // Pin the AVX2 tier through the dispatcher; a host without it clamps
  // the request to scalar, leaving nothing to compare.
  const ScoreKernelPath before = ActiveScoreKernelPath();
  if (ForceScoreKernelPath(ScoreKernelPath::kAvx2) != ScoreKernelPath::kAvx2) {
    ForceScoreKernelPath(before);
    GTEST_SKIP() << "no SIMD path on this host/build";
  }
  std::vector<double> simd(data::ColumnBlocks::kBlockRows);
  std::vector<double> scalar(data::ColumnBlocks::kBlockRows);
  for (size_t d : {size_t{1}, size_t{3}, size_t{8}}) {
    for (const Family& family : Families(300, d, 23)) {
      const data::ColumnBlocks blocks = MustBuild(family.data);
      for (const LinearFunction& f : ProbeFunctions(d, 31)) {
        for (size_t b = 0; b < blocks.num_blocks(); ++b) {
          ScoreBlockScalar(f.weights().data(), d, blocks.block(b),
                           scalar.data());
          ScoreBlock(f.weights().data(), d, blocks.block(b), simd.data());
          for (size_t lane = 0; lane < data::ColumnBlocks::kBlockRows;
               ++lane) {
            EXPECT_EQ(simd[lane], scalar[lane])
                << family.name << " d=" << d << " block " << b << " lane "
                << lane;
          }
        }
      }
    }
  }  ForceScoreKernelPath(before);
}

TEST(ScoreKernelTest, ScoreAllMatchesRowLoopIncludingTail) {
  const data::Dataset ds = data::GenerateUniform(100, 3, 7);  // partial tail
  const data::ColumnBlocks blocks = MustBuild(ds);
  for (const LinearFunction& f : ProbeFunctions(3, 41)) {
    std::vector<double> out(ds.size());
    ScoreAll(f, blocks, out.data());
    for (size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(out[i], f.Score(ds.row(i))) << "row " << i;
    }
  }
}

TEST(ScoreKernelTest, TopKScanMatchesOracleOnEveryFamily) {
  for (const Family& family : Families(300, 3, 47)) {
    const data::ColumnBlocks blocks = MustBuild(family.data);
    const size_t n = family.data.size();
    for (const LinearFunction& f : ProbeFunctions(3, 53)) {
      for (size_t k : {size_t{1}, size_t{3}, n / 2, n, n + 10}) {
        EXPECT_EQ(TopKScan(blocks, f, k), testing::BruteTopK(family.data, f, k))
            << family.name << " k=" << k;
        EXPECT_EQ(TopKSetScan(blocks, f, k),
                  testing::BruteTopKSet(family.data, f, k))
            << family.name << " k=" << k;
      }
    }
  }
}

TEST(ScoreKernelTest, MaxScoreAndCountOutrankingMatchLegacyFolds) {
  for (const Family& family : Families(300, 4, 59)) {
    const data::ColumnBlocks blocks = MustBuild(family.data);
    const size_t n = family.data.size();
    for (const LinearFunction& f : ProbeFunctions(4, 61)) {
      double best = f.Score(family.data.row(0));
      for (size_t i = 1; i < n; ++i) {
        best = std::max(best, f.Score(family.data.row(i)));
      }
      EXPECT_EQ(MaxScore(blocks, f), best) << family.name;
      for (int32_t item : {0, 7, static_cast<int32_t>(n) - 1}) {
        EXPECT_EQ(RankOf(blocks, f, item),
                  testing::BruteRankOf(family.data, f, item))
            << family.name << " item " << item;
      }
      const std::vector<int32_t> subset = {2, 5,
                                           static_cast<int32_t>(n) - 3};
      EXPECT_EQ(MinRankOfSubset(blocks, f, subset),
                testing::BruteMinRankOfSubset(family.data, f, subset))
          << family.name;
    }
  }
}

TEST(ScoreKernelTest, MaxScoreIgnoresNaNLikeTheLegacyFold) {
  // The eval metrics fold with std::max, which never lets a NaN win; the
  // kernel's MaxScore must agree on unvalidated data (Dataset construction
  // does not enforce finiteness — CheckFinite is a separate gate).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const data::Dataset ds =
      testing::MakeDataset({{nan}, {0.5}, {0.2}, {nan}, {0.4}});
  const data::ColumnBlocks blocks = MustBuild(ds);
  const LinearFunction f(geometry::Vec{1.0});
  EXPECT_EQ(MaxScore(blocks, f), 0.5);
  const data::Dataset all_nan = testing::MakeDataset({{nan}, {nan}});
  EXPECT_EQ(MaxScore(MustBuild(all_nan), f),
            -std::numeric_limits<double>::infinity());
}

TEST(ScoreKernelTest, AngularSweepInitialOrderMatchesAxisTopK) {
  // The sweep's theta = 0 order (x descending, ties by lower id) is the
  // full ranking under w = (1, 0): the kernel scan and the oracle agree.
  const LinearFunction x_axis({1.0, 0.0});
  for (const Family& family : Families(300, 2, 73)) {
    const core::AngularSweep sweep(family.data);
    const size_t n = family.data.size();
    EXPECT_EQ(sweep.InitialOrder(), TopKScan(MustBuild(family.data), x_axis, n))
        << family.name;
    EXPECT_EQ(sweep.InitialOrder(), testing::BruteTopK(family.data, x_axis, n))
        << family.name;
  }
}

/// Consumer equivalence, engine-vs-direct style: every routed solver and
/// evaluator must produce identical output whether it is handed a mirror
/// or resolves a null one into its own serial build — with and without a
/// skyband index, across thread counts.
TEST(ScoreKernelTest, SolversAreBitIdenticalWithAndWithoutMirror) {
  for (const Family& family : Families(300, 3, 79)) {
    const data::ColumnBlocks blocks = MustBuild(family.data);
    const size_t k = 12;

    // MDRC (threads 1 and 4, fresh private corner caches per run). The
    // constant-column family is degenerate by design and exhausts any node
    // budget; cap it low — the contract then is that the mirrored solve
    // fails (or succeeds) exactly like the plain one.
    for (size_t threads : {size_t{1}, size_t{4}}) {
      core::MdrcOptions options;
      options.threads = threads;
      options.max_nodes = 20000;
      core::MdrcStats plain_stats;
      core::MdrcStats mirrored_stats;
      Result<std::vector<int32_t>> plain =
          core::SolveMdrc(family.data, k, options, &plain_stats);
      Result<std::vector<int32_t>> mirrored = core::SolveMdrc(
          family.data, k, options, &mirrored_stats, {}, nullptr, nullptr,
          &blocks);
      ASSERT_EQ(plain.status().code(), mirrored.status().code())
          << family.name;
      if (!plain.ok()) continue;
      EXPECT_EQ(*mirrored, *plain) << family.name << " threads=" << threads;
      EXPECT_EQ(mirrored_stats.nodes, plain_stats.nodes) << family.name;
      EXPECT_EQ(mirrored_stats.leaves, plain_stats.leaves) << family.name;
    }

    // K-SETr (serial and parallel draws).
    for (size_t threads : {size_t{1}, size_t{4}}) {
      core::KSetSamplerOptions options;
      options.termination_count = 40;
      options.max_samples = 4000;
      options.threads = threads;
      Result<core::KSetSampleResult> plain =
          core::SampleKSets(family.data, k, options);
      Result<core::KSetSampleResult> mirrored =
          core::SampleKSets(family.data, k, options, {}, nullptr, &blocks);
      ASSERT_TRUE(plain.ok());
      ASSERT_TRUE(mirrored.ok());
      EXPECT_EQ(mirrored->samples_drawn, plain->samples_drawn)
          << family.name;
      ASSERT_EQ(mirrored->ksets.size(), plain->ksets.size()) << family.name;
      for (size_t i = 0; i < plain->ksets.size(); ++i) {
        EXPECT_EQ(mirrored->ksets.sets()[i].ids, plain->ksets.sets()[i].ids);
      }
    }

    // Sampled evaluator, with and without a (forced) skyband index, serial
    // and parallel.
    const std::vector<int32_t> subset = testing::BruteTopKSet(
        family.data, LinearFunction(geometry::Vec(3, 1.0)), k);
    core::CandidateIndexOptions force;
    force.min_dataset_size = 0;
    force.max_band_fraction = 1.0;
    force.precheck_sample = 0;
    force.budget_slack_per_tuple = 0;
    Result<core::CandidateIndex::Outcome> outcome =
        core::CandidateIndex::Create(family.data, k, force);
    ASSERT_TRUE(outcome.ok());
    ASSERT_NE(outcome->index, nullptr);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      core::SampledRegretOptions options;
      options.num_functions = 300;
      options.threads = threads;
      Result<int64_t> plain = core::SampledRankRegretEstimate(
          family.data, subset, options);
      Result<int64_t> mirrored = core::SampledRankRegretEstimate(
          family.data, subset, options, {}, nullptr, nullptr, &blocks);
      Result<int64_t> banded = core::SampledRankRegretEstimate(
          family.data, subset, options, {}, outcome->index.get(), nullptr,
          &blocks);
      ASSERT_TRUE(plain.ok());
      ASSERT_TRUE(mirrored.ok());
      ASSERT_TRUE(banded.ok());
      EXPECT_EQ(*mirrored, *plain) << family.name << " threads=" << threads;
      EXPECT_EQ(*banded, *plain) << family.name << " threads=" << threads;
    }

  }
}

/// Exact within-k certificate via k-set enumeration — tiny n, the
/// enumeration solves O(|S| k n) LPs (its documented scaling limit).
TEST(ScoreKernelTest, ExactWithinKCertificateMatchesWithMirror) {
  for (const Family& family : Families(60, 3, 109)) {
    const data::ColumnBlocks blocks = MustBuild(family.data);
    const size_t k = 4;
    const std::vector<int32_t> subset = testing::BruteTopKSet(
        family.data, LinearFunction(geometry::Vec(3, 1.0)), k);
    Result<eval::RankRegretCertificate> plain_cert =
        eval::ExactRankRegretWithinK(family.data, subset, k);
    Result<eval::RankRegretCertificate> mirrored_cert =
        eval::ExactRankRegretWithinK(family.data, subset, k, 0, nullptr,
                                     &blocks);
    // Tie-saturated families can defeat the enumeration's seeding; the
    // contract then is that both paths fail identically.
    ASSERT_EQ(plain_cert.status().code(), mirrored_cert.status().code())
        << family.name;
    if (!plain_cert.ok()) continue;
    EXPECT_EQ(mirrored_cert->within_k, plain_cert->within_k) << family.name;
    EXPECT_EQ(mirrored_cert->witness_rank, plain_cert->witness_rank);
    EXPECT_EQ(mirrored_cert->witness_weights, plain_cert->witness_weights);
  }
}

TEST(ScoreKernelTest, Solve2dRrrIsBitIdenticalWithMirror) {
  for (const Family& family : Families(250, 2, 83)) {
    const data::ColumnBlocks blocks = MustBuild(family.data);
    for (size_t k : {size_t{1}, size_t{10}}) {
      Result<std::vector<int32_t>> plain = core::Solve2dRrr(family.data, k);
      Result<std::vector<int32_t>> mirrored = core::Solve2dRrr(
          family.data, k, {}, {}, nullptr, nullptr, &blocks);
      ASSERT_TRUE(plain.ok()) << family.name;
      ASSERT_TRUE(mirrored.ok()) << family.name;
      EXPECT_EQ(*mirrored, *plain) << family.name << " k=" << k;
    }
  }
}

/// The engine hands its prepared mirror to every query; its results must
/// match direct calls (each on its own serial mirror, no shared caches)
/// exactly.
TEST(ScoreKernelTest, EngineMatchesDirectSolvers) {
  const data::Dataset ds = data::GenerateUniform(400, 3, 97);
  Result<std::shared_ptr<core::RrrEngine>> engine =
      core::RrrEngine::Create(data::Dataset(ds));
  ASSERT_TRUE(engine.ok());
  const size_t k = 15;

  core::QueryOptions query;
  query.algorithm = core::Algorithm::kMdRc;
  Result<core::QueryResult> via_engine = (*engine)->Solve(k, query);
  ASSERT_TRUE(via_engine.ok());
  EXPECT_TRUE(via_engine->diagnostics.columnar_kernel);
  Result<std::vector<int32_t>> direct = core::SolveMdrc(ds, k);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->representative, *direct);

  Result<core::EvalReport> report =
      (*engine)->Evaluate(via_engine->representative, k);
  ASSERT_TRUE(report.ok());
  core::SampledRegretOptions sampled;  // engine defaults: 10k functions
  Result<int64_t> direct_regret = core::SampledRankRegretEstimate(
      ds, via_engine->representative, sampled);
  ASSERT_TRUE(direct_regret.ok());
  EXPECT_EQ(report->rank_regret, *direct_regret);
}

/// eval::Evaluate and eval::SampledRegretRatio route their full scans
/// through an internally built mirror; their numbers must equal a literal
/// row-loop re-implementation, draw for draw.
TEST(ScoreKernelTest, EvalMetricsMatchLegacyLoops) {
  const data::Dataset ds = data::GenerateUniform(500, 4, 101);
  const std::vector<int32_t> subset =
      testing::BruteTopKSet(ds, LinearFunction(geometry::Vec(4, 1.0)), 10);

  eval::EvaluateOptions options;
  options.k = 10;
  options.num_functions = 200;
  Result<eval::EvaluationReport> report =
      eval::Evaluate(ds, subset, options);
  ASSERT_TRUE(report.ok());

  // Legacy loops, replayed with the identical Rng draw sequence.
  Rng rng(options.seed);
  int64_t rank_regret = 0;
  double ratio = 0.0;
  for (size_t s = 0; s < options.num_functions; ++s) {
    const LinearFunction f(rng.UnitWeightVector(4));
    rank_regret =
        std::max(rank_regret, testing::BruteMinRankOfSubset(ds, f, subset));
    double best_all = 0.0;
    for (size_t i = 0; i < ds.size(); ++i) {
      best_all = std::max(best_all, f.Score(ds.row(i)));
    }
    if (best_all > 0.0) {
      double best_subset = 0.0;
      for (int32_t id : subset) {
        best_subset =
            std::max(best_subset, f.Score(ds.row(static_cast<size_t>(id))));
      }
      ratio = std::max(ratio, (best_all - best_subset) / best_all);
    }
  }
  EXPECT_EQ(report->rank_regret, rank_regret);
  EXPECT_EQ(report->regret_ratio, ratio);

  eval::RegretRatioOptions rr_options;
  rr_options.num_functions = 200;
  Result<double> rr = eval::SampledRegretRatio(ds, subset, rr_options);
  ASSERT_TRUE(rr.ok());
  Rng rr_rng(rr_options.seed);
  double rr_legacy = 0.0;
  for (size_t s = 0; s < rr_options.num_functions; ++s) {
    const LinearFunction f(rr_rng.UnitWeightVector(4));
    double best_all = 0.0;
    for (size_t i = 0; i < ds.size(); ++i) {
      best_all = std::max(best_all, f.Score(ds.row(i)));
    }
    if (best_all <= 0.0) continue;
    double best_subset = 0.0;
    for (int32_t id : subset) {
      best_subset =
          std::max(best_subset, f.Score(ds.row(static_cast<size_t>(id))));
    }
    rr_legacy = std::max(rr_legacy, (best_all - best_subset) / best_all);
  }
  EXPECT_EQ(*rr, rr_legacy);
}

/// The CandidateIndex build (row-major sum order) must keep exactly the
/// rows with fewer than k always-outrankers, counted pair by pair, and its
/// band-blocked MinRankOfSubset must match the rank oracle, with or without
/// the fallback counter.
TEST(ScoreKernelTest, CandidateIndexMatchesBruteForceOracles) {
  for (const Family& family : Families(300, 3, 103)) {
    const data::ColumnBlocks blocks = MustBuild(family.data);
    core::CandidateIndexOptions force;
    force.min_dataset_size = 0;
    force.max_band_fraction = 1.0;
    force.precheck_sample = 0;
    force.budget_slack_per_tuple = 0;
    const size_t k = 9;
    Result<core::CandidateIndex::Outcome> built =
        core::CandidateIndex::Create(family.data, k, force);
    ASSERT_TRUE(built.ok());
    ASSERT_NE(built->index, nullptr);
    const size_t n = family.data.size();
    std::vector<int32_t> want_band;
    for (size_t i = 0; i < n; ++i) {
      size_t outrankers = 0;
      for (size_t j = 0; j < n; ++j) {
        if (j != i && core::AlwaysOutranks(family.data.row(j),
                                           static_cast<int32_t>(j),
                                           family.data.row(i),
                                           static_cast<int32_t>(i), 3)) {
          ++outrankers;
        }
      }
      if (outrankers < k) want_band.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(built->index->band_ids(), want_band) << family.name;
    for (const LinearFunction& f : ProbeFunctions(3, 107)) {
      const std::vector<int32_t> subset = {1, 4, 11};
      const int64_t want =
          testing::BruteMinRankOfSubset(family.data, f, subset);
      size_t fallbacks = 0;
      EXPECT_EQ(built->index->MinRankOfSubset(f, subset, blocks, &fallbacks),
                want)
          << family.name;
      EXPECT_EQ(built->index->MinRankOfSubset(f, subset, blocks), want)
          << family.name;
    }
  }
}

}  // namespace
}  // namespace topk
}  // namespace rrr
