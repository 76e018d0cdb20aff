// The dynamic-data layer's central contract: every version a DynamicDataset
// publishes answers every query BIT-IDENTICALLY to a from-scratch engine
// built over the same rows — no matter which artifacts were carried forward
// incrementally, how the updates interleaved with queries, or which snapshot
// a query pinned. This driver replays seeded random schedules of
// {insert, delete, batch-append, Solve, SolveDual, Evaluate, snapshot-pin}
// against an oracle engine rebuilt from the mirrored rows after every
// mutation; any failure prints the replayable seed and schedule.
#include "core/dataset_updates.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/prepared_dataset.h"
#include "data/column_blocks.h"
#include "data/dataset.h"
#include "geometry/vec.h"
#include "test_util.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace core {
namespace {

using rrr::testing::DataFamily;
using rrr::testing::DynamicOp;
using rrr::testing::DynamicSchedule;
using rrr::testing::MakeDataset;

constexpr size_t kSeedsPerFamily = 48;  // x5 families = 240 schedules
constexpr size_t kOpsPerSchedule = 12;

/// Per-seed configuration axes, derived from the seed bits so the matrix
/// covers serial/parallel, warm/cold artifact maintenance, forced/declined
/// candidate indexes, and both dimensionalities without a nested loop
/// blowing up the runtime.
struct Axes {
  size_t threads = 1;
  bool incremental = true;
  bool force_candidate = false;
  size_t dims = 2;

  std::string ToString() const {
    return "axes{threads=" + std::to_string(threads) +
           " incremental=" + std::string(incremental ? "on" : "off") +
           " candidate=" + std::string(force_candidate ? "forced" : "auto") +
           " d=" + std::to_string(dims) + "}";
  }
};

Axes AxesFromSeed(uint64_t seed) {
  Axes axes;
  axes.threads = (seed & 1) != 0 ? 4 : 1;
  axes.incremental = ((seed >> 1) & 1) != 0;
  axes.force_candidate = ((seed >> 2) & 1) != 0;
  axes.dims = ((seed >> 3) & 1) != 0 ? 3 : 2;
  return axes;
}

EngineOptions MakeEngineOptions(const Axes& axes) {
  EngineOptions options;
  options.defaults.threads = axes.threads;
  // Degenerate families exhaust MDRC's node budget at tiny k; cap it low so
  // the failure (shared by both engines) is cheap.
  options.defaults.mdrc.max_nodes = 16384;
  options.eval_num_functions = 200;
  if (axes.force_candidate) {
    CandidateIndexOptions& candidate = options.prepared.candidate;
    candidate.min_dataset_size = 0;
    candidate.max_band_fraction = 1.0;
    candidate.precheck_sample = 0;
    candidate.budget_slack_per_tuple = 0;
  }
  return options;
}

/// A snapshot pinned mid-schedule, re-queried after later mutations.
struct Pin {
  std::shared_ptr<const PreparedDataset> snapshot;
  size_t k = 0;
  std::vector<int32_t> expected;
};

void RunSchedule(const DynamicSchedule& schedule, const Axes& axes) {
  const EngineOptions engine_options = MakeEngineOptions(axes);
  DynamicDatasetOptions dyn_options;
  dyn_options.prepared = engine_options.prepared;
  dyn_options.incremental_artifacts = axes.incremental;

  Result<std::shared_ptr<DynamicDataset>> dyn =
      DynamicDataset::Create(MakeDataset(schedule.initial_rows), dyn_options);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  Result<std::shared_ptr<RrrEngine>> dyn_engine =
      NewDynamicEngine(*dyn, engine_options);
  ASSERT_TRUE(dyn_engine.ok()) << dyn_engine.status().ToString();

  // The oracle: the rows the dynamic dataset must hold, mirrored by the
  // driver, with a from-scratch engine rebuilt lazily after every mutation.
  std::vector<std::vector<double>> rows = schedule.initial_rows;
  std::shared_ptr<RrrEngine> oracle;
  const auto oracle_engine = [&]() -> RrrEngine& {
    if (oracle == nullptr) {
      Result<std::shared_ptr<RrrEngine>> fresh =
          RrrEngine::Create(MakeDataset(rows), engine_options);
      RRR_CHECK(fresh.ok()) << fresh.status().ToString();
      oracle = *fresh;
    }
    return *oracle;
  };

  // After every mutation the published snapshot's cells must equal the
  // mirrored rows bit-exactly (compaction/append layout contract).
  const auto check_cells = [&]() {
    const std::shared_ptr<const PreparedDataset> snap = (*dyn)->Snapshot();
    ASSERT_EQ(snap->size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const double* row = snap->dataset().row(i);
      for (size_t j = 0; j < schedule.dims; ++j) {
        ASSERT_EQ(row[j], rows[i][j]) << "row " << i << " col " << j;
      }
    }
  };

  std::vector<int32_t> last_rep;
  size_t last_k = 1;
  std::vector<Pin> pins;
  uint64_t expected_ordinal = 0;

  for (size_t step = 0; step < schedule.ops.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const DynamicOp& op = schedule.ops[step];
    switch (op.kind) {
      case DynamicOp::Kind::kInsert: {
        Result<DatasetVersion> v = (*dyn)->Insert(op.rows[0]);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        EXPECT_EQ(v->ordinal, ++expected_ordinal);
        rows.push_back(op.rows[0]);
        oracle.reset();
        check_cells();
        break;
      }
      case DynamicOp::Kind::kBatchAppend: {
        Result<DatasetVersion> v = (*dyn)->BatchAppend(op.rows);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        EXPECT_EQ(v->ordinal, ++expected_ordinal);
        rows.insert(rows.end(), op.rows.begin(), op.rows.end());
        oracle.reset();
        check_cells();
        break;
      }
      case DynamicOp::Kind::kDelete: {
        Result<DatasetVersion> v = (*dyn)->Delete(op.delete_id);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        EXPECT_EQ(v->ordinal, ++expected_ordinal);
        rows.erase(rows.begin() + op.delete_id);
        oracle.reset();
        check_cells();
        break;
      }
      case DynamicOp::Kind::kSolve: {
        const size_t k = std::min(op.k, rows.size());
        Result<QueryResult> got = (*dyn_engine)->Solve(k);
        Result<QueryResult> want = oracle_engine().Solve(k);
        ASSERT_EQ(got.status().code(), want.status().code())
            << "dynamic: " << got.status().ToString()
            << " oracle: " << want.status().ToString();
        if (!got.ok()) break;
        EXPECT_EQ(got->representative, want->representative);
        EXPECT_EQ(got->diagnostics.algorithm_used,
                  want->diagnostics.algorithm_used);
        EXPECT_EQ(got->diagnostics.dataset_version, (*dyn)->version());
        last_rep = got->representative;
        last_k = k;
        break;
      }
      case DynamicOp::Kind::kSolveDual: {
        Result<DualResult> got = (*dyn_engine)->SolveDual(op.max_size);
        Result<DualResult> want = oracle_engine().SolveDual(op.max_size);
        ASSERT_EQ(got.status().code(), want.status().code())
            << "dynamic: " << got.status().ToString()
            << " oracle: " << want.status().ToString();
        if (!got.ok()) break;
        EXPECT_EQ(got->k, want->k);
        EXPECT_EQ(got->representative, want->representative);
        break;
      }
      case DynamicOp::Kind::kEvaluate: {
        if (last_rep.empty()) break;  // the earlier Solve failed
        Result<EvalReport> got = (*dyn_engine)->Evaluate(last_rep, last_k);
        Result<EvalReport> want = oracle_engine().Evaluate(last_rep, last_k);
        ASSERT_EQ(got.status().code(), want.status().code())
            << "dynamic: " << got.status().ToString()
            << " oracle: " << want.status().ToString();
        if (!got.ok()) break;
        EXPECT_EQ(got->rank_regret, want->rank_regret);
        EXPECT_EQ(got->exact, want->exact);
        EXPECT_EQ(got->within_k, want->within_k);
        break;
      }
      case DynamicOp::Kind::kSnapshotPin: {
        const std::shared_ptr<const PreparedDataset> snap = (*dyn)->Snapshot();
        const size_t k = std::min(op.k, rows.size());
        QueryOptions pinned;
        pinned.snapshot = snap;
        Result<QueryResult> got = (*dyn_engine)->Solve(k, pinned);
        Result<QueryResult> want = oracle_engine().Solve(k);
        ASSERT_EQ(got.status().code(), want.status().code())
            << "dynamic: " << got.status().ToString()
            << " oracle: " << want.status().ToString();
        if (!got.ok()) break;
        EXPECT_EQ(got->representative, want->representative);
        pins.push_back({snap, k, want->representative});
        break;
      }
    }
  }

  // Consistent reads outlive the writers: every pinned snapshot still
  // answers with the rows it froze — from its own memo entry, untouched by
  // every version published since.
  for (size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("pin " + std::to_string(i));
    QueryOptions pinned;
    pinned.snapshot = pins[i].snapshot;
    Result<QueryResult> replay = (*dyn_engine)->Solve(pins[i].k, pinned);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->representative, pins[i].expected);
    EXPECT_TRUE(replay->diagnostics.result_from_cache);
    EXPECT_EQ(replay->diagnostics.dataset_version,
              pins[i].snapshot->version());
  }
}

class DynamicEquivalenceTest
    : public ::testing::TestWithParam<DataFamily> {};

TEST_P(DynamicEquivalenceTest, RandomSchedulesMatchOracleRebuilds) {
  const DataFamily family = GetParam();
  for (uint64_t seed = 0; seed < kSeedsPerFamily; ++seed) {
    const Axes axes = AxesFromSeed(seed);
    const DynamicSchedule schedule =
        rrr::testing::MakeDynamicSchedule(family, seed, axes.dims,
                                          kOpsPerSchedule);
    SCOPED_TRACE(schedule.ToString() + " " + axes.ToString());
    RunSchedule(schedule, axes);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, DynamicEquivalenceTest,
    ::testing::ValuesIn(rrr::testing::AllDataFamilies()),
    [](const ::testing::TestParamInfo<DataFamily>& info) {
      std::string name = rrr::testing::DataFamilyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The stale-memo footgun, pinned as a regression test: before the
/// version-keyed memo, a dynamic engine would happily answer a post-update
/// query from a pre-update entry (and report reuse flags from the wrong
/// row-state). Now the version is part of the key and of Diagnostics.
TEST(DynamicMemoTest, MemoEntriesAreScopedToTheDatasetVersion) {
  Result<std::shared_ptr<DynamicDataset>> dyn = DynamicDataset::Create(
      MakeDataset(rrr::testing::FamilyRows(DataFamily::kUniform, 32, 2, 7)));
  ASSERT_TRUE(dyn.ok());
  Result<std::shared_ptr<RrrEngine>> engine = NewDynamicEngine(*dyn);
  ASSERT_TRUE(engine.ok());

  const std::shared_ptr<const PreparedDataset> old_snap = (*dyn)->Snapshot();
  Result<QueryResult> cold = (*engine)->Solve(3);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->diagnostics.result_from_cache);
  EXPECT_EQ(cold->diagnostics.dataset_version, old_snap->version());

  // Publish a new version that changes the answer's inputs.
  ASSERT_TRUE((*dyn)->Insert({0.99, 0.98}).ok());

  // The same query against the new version must MISS the memo: the old
  // entry's key names the old version.
  Result<QueryResult> fresh = (*engine)->Solve(3);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->diagnostics.result_from_cache);
  EXPECT_EQ(fresh->diagnostics.dataset_version, (*dyn)->version());

  // While a query pinned to the old snapshot still HITS its own entry and
  // reports the version its reuse flags are scoped to.
  QueryOptions pinned;
  pinned.snapshot = old_snap;
  Result<QueryResult> replay = (*engine)->Solve(3, pinned);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->diagnostics.result_from_cache);
  EXPECT_EQ(replay->diagnostics.dataset_version, old_snap->version());
  EXPECT_EQ(replay->representative, cold->representative);

  // And the new version's repeat query hits its own (new) entry.
  Result<QueryResult> warm = (*engine)->Solve(3);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->diagnostics.result_from_cache);
  EXPECT_EQ(warm->representative, fresh->representative);
}

/// SolveDual pins all its probes to one snapshot: a writer publishing
/// mid-search must never tear the binary search across versions. (Driven
/// deterministically here; the concurrency test hammers the real race.)
TEST(DynamicMemoTest, SolveDualProbesShareOneSnapshot) {
  Result<std::shared_ptr<DynamicDataset>> dyn = DynamicDataset::Create(
      MakeDataset(rrr::testing::FamilyRows(DataFamily::kUniform, 40, 2, 11)));
  ASSERT_TRUE(dyn.ok());
  Result<std::shared_ptr<RrrEngine>> engine = NewDynamicEngine(*dyn);
  ASSERT_TRUE(engine.ok());

  const std::shared_ptr<const PreparedDataset> snap = (*dyn)->Snapshot();
  Result<DualResult> before = (*engine)->SolveDual(2);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE((*dyn)->Delete(0).ok());

  // Pinned to the old snapshot, the dual result must replay identically.
  QueryOptions pinned;
  pinned.snapshot = snap;
  Result<DualResult> pinned_replay = (*engine)->SolveDual(2, pinned);
  ASSERT_TRUE(pinned_replay.ok());
  EXPECT_EQ(pinned_replay->k, before->k);
  EXPECT_EQ(pinned_replay->representative, before->representative);
}

/// Every published version owns a columnar mirror of exactly its rows:
/// bound to its own dataset, and scanning like a fresh dense Build of
/// them — whether the mirror was carried forward (appended tiles, masked
/// lanes) or re-transposed at publication.
void ExpectMirrorMatchesFreshBuild(const PreparedDataset& version,
                                   const std::string& tag) {
  const data::Dataset& rows = version.dataset();
  const data::ColumnBlocks& mirror = version.column_blocks();
  ASSERT_EQ(mirror.source(), &rows) << tag;
  ASSERT_EQ(mirror.rows(), rows.size()) << tag;
  ASSERT_EQ(mirror.dims(), rows.dims()) << tag;
  const data::ColumnBlocks fresh = rrr::testing::MustBuildBlocks(rows);
  const size_t n = rows.size();
  const size_t d = rows.dims();
  std::vector<topk::LinearFunction> probes;
  for (size_t axis = 0; axis < d; ++axis) {
    geometry::Vec w(d, 0.0);
    w[axis] = 1.0;
    probes.emplace_back(std::move(w));
  }
  probes.emplace_back(geometry::Vec(d, 1.0));
  for (const topk::LinearFunction& f : probes) {
    for (size_t k : {size_t{1}, size_t{5}, n}) {
      EXPECT_EQ(topk::TopKScan(mirror, f, k), topk::TopKScan(fresh, f, k))
          << tag << " k=" << k;
    }
    for (int32_t id : {0, static_cast<int32_t>(n / 2),
                       static_cast<int32_t>(n) - 1}) {
      const double score = f.Score(rows.row(static_cast<size_t>(id)));
      EXPECT_EQ(topk::CountOutranking(mirror, f, score, id),
                topk::CountOutranking(fresh, f, score, id))
          << tag << " id=" << id;
    }
  }
}

std::shared_ptr<DynamicDataset> MakeDynamic(DynamicDatasetOptions options) {
  // 150 rows: two full tiles plus a partial one, so appends fill the
  // partial tile and deletes hit full and partial tiles alike.
  Result<std::shared_ptr<DynamicDataset>> dyn = DynamicDataset::Create(
      MakeDataset(rrr::testing::FamilyRows(DataFamily::kDuplicateHeavy, 150,
                                           3, 19)),
      std::move(options));
  RRR_CHECK(dyn.ok()) << dyn.status().ToString();
  return std::move(dyn).value();
}

TEST(DynamicMirrorTest, AppendPublishesAnAppendedMirror) {
  std::shared_ptr<DynamicDataset> dyn = MakeDynamic({});
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "initial");
  ASSERT_TRUE(dyn->Insert({0.3, 0.9, 0.1}).ok());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "insert");
  ASSERT_TRUE(
      dyn->BatchAppend(rrr::testing::FamilyRows(DataFamily::kUniform, 70, 3,
                                                23))
          .ok());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "batch-append");
}

TEST(DynamicMirrorTest, DeleteMasksThenCompactsPastMaxDeadFraction) {
  DynamicDatasetOptions options;
  // Two dead lanes of ~150 stay under it; a third crosses it.
  options.max_dead_fraction = 0.015;
  std::shared_ptr<DynamicDataset> dyn = MakeDynamic(options);
  // Below the threshold the carried-forward mirror masks the dead lane.
  ASSERT_TRUE(dyn->Delete(70).ok());
  EXPECT_TRUE(dyn->Snapshot()->column_blocks().masked());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "delete 1");
  ASSERT_TRUE(dyn->Delete(0).ok());
  EXPECT_TRUE(dyn->Snapshot()->column_blocks().masked());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "delete 2");
  // An append on a masked base keeps the mask.
  ASSERT_TRUE(dyn->Insert({0.5, 0.5, 0.5}).ok());
  EXPECT_TRUE(dyn->Snapshot()->column_blocks().masked());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "append on masked");
  // Past the threshold the version re-transposes densely.
  ASSERT_TRUE(dyn->Delete(140).ok());
  EXPECT_FALSE(dyn->Snapshot()->column_blocks().masked());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "compacted");
}

TEST(DynamicMirrorTest, NonIncrementalVersionsBuildDenseMirrors) {
  DynamicDatasetOptions options;
  options.incremental_artifacts = false;
  std::shared_ptr<DynamicDataset> dyn = MakeDynamic(options);
  ASSERT_TRUE(dyn->Insert({0.3, 0.9, 0.1}).ok());
  EXPECT_FALSE(dyn->Snapshot()->column_blocks().masked());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "insert");
  ASSERT_TRUE(dyn->Delete(70).ok());
  EXPECT_FALSE(dyn->Snapshot()->column_blocks().masked());
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "delete");
}

}  // namespace
}  // namespace core
}  // namespace rrr
