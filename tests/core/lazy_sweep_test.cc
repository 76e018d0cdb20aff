// The full-data 2D angular sweep is a lazy, non-evictable artifact of
// PreparedDataset: preparing sorts nothing, queries the candidate index
// serves never build it, the first full-data 2D query builds it exactly
// once (concurrent first callers included), and every answer matches one
// computed with an explicitly constructed AngularSweep.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/dataset_updates.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/prepared_dataset.h"
#include "core/rrr2d.h"
#include "core/sweep.h"
#include "data/generators.h"

namespace rrr {
namespace core {
namespace {

/// The always-counted part of ArtifactBytes::dataset: the rows and their
/// eagerly built columnar mirror.
size_t RowBytes(const PreparedDataset& prepared) {
  return prepared.size() * prepared.dims() * sizeof(double) +
         prepared.column_blocks().ApproxBytes();
}

std::shared_ptr<const PreparedDataset> Prepare(data::Dataset dataset) {
  Result<std::shared_ptr<const PreparedDataset>> prepared =
      PreparedDataset::Create(std::move(dataset));
  RRR_CHECK(prepared.ok()) << prepared.status().ToString();
  return prepared.value();
}

QueryOptions TwoDRrr() {
  QueryOptions query;
  query.algorithm = Algorithm::k2dRrr;
  return query;
}

TEST(LazySweepTest, CountsNoSweepBytesUntilFirstUse) {
  std::shared_ptr<const PreparedDataset> prepared =
      Prepare(data::GenerateUniform(500, 2, 1));
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset, RowBytes(*prepared));

  const AngularSweep* sweep = prepared->sweep();
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(prepared->sweep(), sweep);  // built once, then shared
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset,
            RowBytes(*prepared) + sweep->ApproxBytes());
  // Never evicted: callers hold the raw pointer.
  prepared->EvictSharedArtifacts();
  EXPECT_EQ(prepared->sweep(), sweep);
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset,
            RowBytes(*prepared) + sweep->ApproxBytes());

  std::shared_ptr<const PreparedDataset> three_d =
      Prepare(data::GenerateUniform(100, 3, 1));
  EXPECT_EQ(three_d->sweep(), nullptr);
  EXPECT_EQ(three_d->ApproxArtifactBytes().dataset, RowBytes(*three_d));
}

TEST(LazySweepTest, IndexBackedSolveLeavesSweepUnbuilt) {
  // n at the candidate index's default row threshold, so the index builds
  // and FindRanges sweeps its band. Strongly correlated rows keep the
  // reference's full sweep short (few exchanges).
  const size_t n = CandidateIndexOptions().min_dataset_size;
  std::shared_ptr<const PreparedDataset> prepared =
      Prepare(data::GenerateCorrelated(n, 2, 7, 0.95));
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(prepared);
  ASSERT_TRUE(engine.ok());
  for (size_t k : {size_t{5}, size_t{20}}) {
    Result<QueryResult> solved = engine.value()->Solve(k, TwoDRrr());
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_GT(solved->diagnostics.skyband_size, 0u);  // the index served it
    EXPECT_EQ(prepared->ApproxArtifactBytes().dataset, RowBytes(*prepared));

    const AngularSweep explicit_sweep(prepared->dataset());
    Result<std::vector<int32_t>> reference =
        Solve2dRrr(prepared->dataset(), k, RrrOptions().rrr2d, {},
                   &explicit_sweep);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(solved->representative, reference.value());
  }
}

TEST(LazySweepTest, DeclinedIndexSolveAndExactEvalBuildItOnce) {
  std::shared_ptr<const PreparedDataset> prepared =
      Prepare(data::GenerateAnticorrelated(300, 2, 3));
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(prepared);
  ASSERT_TRUE(engine.ok());
  const AngularSweep explicit_sweep(prepared->dataset());

  Result<QueryResult> solved = engine.value()->Solve(6, TwoDRrr());
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(solved->diagnostics.skyband_size, 0u);  // index declined
  const AngularSweep* sweep = prepared->sweep();
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset,
            RowBytes(*prepared) + sweep->ApproxBytes());
  Result<std::vector<int32_t>> reference = Solve2dRrr(
      prepared->dataset(), 6, RrrOptions().rrr2d, {}, &explicit_sweep);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(solved->representative, reference.value());

  Result<EvalReport> report =
      engine.value()->Evaluate(solved->representative, 6);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->exact);
  EXPECT_EQ(prepared->sweep(), sweep);
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset,
            RowBytes(*prepared) + sweep->ApproxBytes());
  Result<int64_t> exact = SweepExactRankRegret2D(
      prepared->dataset(), solved->representative, {}, &explicit_sweep);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(report->rank_regret, exact.value());
}

TEST(LazySweepTest, ConcurrentFirstCallsShareOneBuild) {
  // Four threads make the first full-data 2D call together, two through
  // SOLVE and two through exact EVAL; a fifth reads the byte accounting
  // while they build (the TSan witness for the lock-free flag).
  std::shared_ptr<const PreparedDataset> prepared =
      Prepare(data::GenerateUniform(400, 2, 11));
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(prepared);
  ASSERT_TRUE(engine.ok());
  const AngularSweep explicit_sweep(prepared->dataset());
  Result<std::vector<int32_t>> reference = Solve2dRrr(
      prepared->dataset(), 4, RrrOptions().rrr2d, {}, &explicit_sweep);
  ASSERT_TRUE(reference.ok());
  Result<int64_t> reference_regret = SweepExactRankRegret2D(
      prepared->dataset(), reference.value(), {}, &explicit_sweep);
  ASSERT_TRUE(reference_regret.ok());

  std::vector<const AngularSweep*> seen(4, nullptr);
  std::vector<std::vector<int32_t>> reps(4);
  std::vector<int64_t> regrets(4, -1);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        QueryOptions query = TwoDRrr();
        query.use_cache = false;
        Result<QueryResult> solved = engine.value()->Solve(4, query);
        if (solved.ok()) reps[t] = solved->representative;
      } else {
        Result<EvalReport> report =
            engine.value()->Evaluate(reference.value(), 4);
        if (report.ok()) regrets[t] = report->rank_regret;
      }
      seen[t] = prepared->sweep();
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 100; ++i) prepared->ApproxArtifactBytes();
  });
  for (std::thread& thread : threads) thread.join();

  const AngularSweep* sweep = prepared->sweep();
  ASSERT_NE(sweep, nullptr);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(seen[t], sweep) << "thread " << t;
    if (t % 2 == 0) {
      EXPECT_EQ(reps[t], reference.value()) << "thread " << t;
    } else {
      EXPECT_EQ(regrets[t], reference_regret.value()) << "thread " << t;
    }
  }
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset,
            RowBytes(*prepared) + sweep->ApproxBytes());
}

TEST(LazySweepTest, DynamicAppendPublishesWithoutBuildingOne) {
  Result<std::shared_ptr<DynamicDataset>> dynamic =
      DynamicDataset::Create(data::GenerateUniform(200, 2, 5));
  ASSERT_TRUE(dynamic.ok());
  // Even with the current version's sweep built, publishing the next
  // version builds none.
  std::shared_ptr<const PreparedDataset> first = dynamic.value()->Snapshot();
  ASSERT_NE(first->sweep(), nullptr);
  ASSERT_TRUE(dynamic.value()->BatchAppend({{0.5, 0.25}, {0.125, 0.75}}).ok());
  ASSERT_TRUE(dynamic.value()->Insert({0.9, 0.1}).ok());
  std::shared_ptr<const PreparedDataset> latest = dynamic.value()->Snapshot();
  ASSERT_NE(latest, first);
  EXPECT_EQ(latest->size(), 203u);
  EXPECT_EQ(latest->ApproxArtifactBytes().dataset, RowBytes(*latest));

  // Its first full-data query then agrees with an explicit sweep.
  const AngularSweep explicit_sweep(latest->dataset());
  const std::vector<int32_t> subset = {0, 200, 202};
  Result<int64_t> lazy =
      SweepExactRankRegret2D(latest->dataset(), subset, {}, latest->sweep());
  Result<int64_t> reference = SweepExactRankRegret2D(
      latest->dataset(), subset, {}, &explicit_sweep);
  ASSERT_TRUE(lazy.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(lazy.value(), reference.value());
}

}  // namespace
}  // namespace core
}  // namespace rrr
