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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
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
/// covers serial/parallel, forced/declined candidate indexes, and both
/// dimensionalities without a nested loop blowing up the runtime.
struct Axes {
  size_t threads = 1;
  bool force_candidate = false;
  size_t dims = 2;

  std::string ToString() const {
    return "axes{threads=" + std::to_string(threads) +
           " candidate=" + std::string(force_candidate ? "forced" : "auto") +
           " d=" + std::to_string(dims) + "}";
  }
};

Axes AxesFromSeed(uint64_t seed) {
  Axes axes;
  axes.threads = (seed & 1) != 0 ? 4 : 1;
  axes.force_candidate = ((seed >> 1) & 1) != 0;
  axes.dims = ((seed >> 2) & 1) != 0 ? 3 : 2;
  return axes;
}

/// Builds every candidate index whatever its profitability, so the small
/// schedule datasets run the pruned paths and maintain dominance counts.
CandidateIndexOptions ForceBuild() {
  CandidateIndexOptions options;
  options.min_dataset_size = 0;
  options.max_band_fraction = 1.0;
  options.precheck_sample = 0;
  options.budget_slack_per_tuple = 0;
  return options;
}

EngineOptions MakeEngineOptions(const Axes& axes) {
  EngineOptions options;
  options.defaults.threads = axes.threads;
  // Degenerate families exhaust MDRC's node budget at tiny k; cap it low so
  // the failure (shared by both engines) is cheap.
  options.defaults.mdrc.max_nodes = 16384;
  options.eval_num_functions = 200;
  return options;
}

/// A snapshot pinned mid-schedule, re-queried after later mutations.
struct Pin {
  std::shared_ptr<const PreparedDataset> snapshot;
  size_t k = 0;
  std::vector<int32_t> expected;
};

/// Replays `schedule` against a from-scratch oracle. `counts_dropped`
/// (may be null) is incremented for every delete that published a version
/// without the dominance counts its base carried — the drop-counts-and-
/// recount fallback of the delete maintenance.
void RunSchedule(const DynamicSchedule& schedule, const Axes& axes,
                 size_t* counts_dropped = nullptr) {
  const EngineOptions engine_options = MakeEngineOptions(axes);
  const CandidateIndexOptions candidate =
      axes.force_candidate ? ForceBuild() : CandidateIndexOptions();

  Result<std::shared_ptr<DynamicDataset>> dyn =
      DynamicDataset::Create(MakeDataset(schedule.initial_rows), candidate);
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
      Result<std::shared_ptr<const PreparedDataset>> prepared =
          PreparedDataset::Create(MakeDataset(rows), candidate);
      RRR_CHECK(prepared.ok()) << prepared.status().ToString();
      Result<std::shared_ptr<RrrEngine>> fresh =
          RrrEngine::Create(std::move(prepared).value(), engine_options);
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
        const bool base_counted =
            (*dyn)->Snapshot()->CandidateCountsSnapshot().first > 0;
        Result<DatasetVersion> v = (*dyn)->Delete(op.delete_id);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        EXPECT_EQ(v->ordinal, ++expected_ordinal);
        if (counts_dropped != nullptr && base_counted &&
            (*dyn)->Snapshot()->CandidateCountsSnapshot().first == 0) {
          ++*counts_dropped;
        }
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

/// The dominating-deletes family: the family's rows sorted by coordinate
/// sum, best first, then deletes of row 0 between queries. Each delete
/// removes the current best row, which always-outranks most of the rest;
/// with forced candidate builds many of those rows hold saturated counts,
/// so the delete maintenance passes its recount bound, drops the counts,
/// and the next query recounts from scratch — the fallback the random
/// schedules rarely reach.
DynamicSchedule DominatingDeletesSchedule(DataFamily family, uint64_t seed,
                                          size_t dims) {
  DynamicSchedule schedule;
  schedule.seed = seed;
  schedule.family = family;
  schedule.dims = dims;
  std::vector<std::vector<double>> rows =
      rrr::testing::FamilyRows(family, 64, dims, 5000 + seed);
  const auto sum = [](const std::vector<double>& row) {
    double s = 0.0;
    for (double v : row) s += v;
    return s;
  };
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const std::vector<double>& a,
                       const std::vector<double>& b) {
                     return sum(a) > sum(b);
                   });
  schedule.initial_rows = std::move(rows);
  const auto push = [&](DynamicOp::Kind kind, size_t k) {
    DynamicOp op;
    op.kind = kind;
    op.k = k;
    op.max_size = k;
    schedule.ops.push_back(std::move(op));
  };
  push(DynamicOp::Kind::kSolve, 3);
  push(DynamicOp::Kind::kDelete, 0);
  push(DynamicOp::Kind::kSolve, 3);
  push(DynamicOp::Kind::kEvaluate, 0);
  push(DynamicOp::Kind::kDelete, 0);
  push(DynamicOp::Kind::kSnapshotPin, 2);
  push(DynamicOp::Kind::kDelete, 0);
  push(DynamicOp::Kind::kSolveDual, 4);
  push(DynamicOp::Kind::kDelete, 0);
  push(DynamicOp::Kind::kSolve, 2);
  push(DynamicOp::Kind::kDelete, 0);
  push(DynamicOp::Kind::kSolve, 3);
  return schedule;
}

TEST_P(DynamicEquivalenceTest, DominatingDeletesDropCountsAndMatchOracle) {
  const DataFamily family = GetParam();
  size_t counts_dropped = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Axes axes;
    axes.threads = (seed & 1) != 0 ? 4 : 1;
    axes.force_candidate = true;
    axes.dims = (seed & 2) != 0 ? 3 : 2;
    const DynamicSchedule schedule =
        DominatingDeletesSchedule(family, seed, axes.dims);
    SCOPED_TRACE(schedule.ToString() + " " + axes.ToString());
    RunSchedule(schedule, axes, &counts_dropped);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(counts_dropped, 0u)
      << "no delete passed the recount bound and dropped the counts";
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
/// bound to its own dataset, laid out cell for cell like a fresh Build of
/// them (padding included), with the same block maxima, and scanning like
/// it.
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
  ASSERT_EQ(mirror.num_blocks(), fresh.num_blocks()) << tag;
  constexpr size_t kBlockRows = data::ColumnBlocks::kBlockRows;
  for (size_t b = 0; b < mirror.num_blocks(); ++b) {
    EXPECT_EQ(std::vector<double>(mirror.block(b),
                                  mirror.block(b) + d * kBlockRows),
              std::vector<double>(fresh.block(b),
                                  fresh.block(b) + d * kBlockRows))
        << tag << " block " << b;
    EXPECT_EQ(std::vector<double>(mirror.block_max(b),
                                  mirror.block_max(b) + d),
              std::vector<double>(fresh.block_max(b), fresh.block_max(b) + d))
        << tag << " block " << b;
  }
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

std::shared_ptr<DynamicDataset> MakeDynamic() {
  // 150 rows: two full tiles plus a partial one, so appends fill the
  // partial tile and deletes hit full and partial tiles alike.
  Result<std::shared_ptr<DynamicDataset>> dyn = DynamicDataset::Create(
      MakeDataset(rrr::testing::FamilyRows(DataFamily::kDuplicateHeavy, 150,
                                           3, 19)));
  RRR_CHECK(dyn.ok()) << dyn.status().ToString();
  return std::move(dyn).value();
}

TEST(DynamicMirrorTest, AppendsAndDeletesPublishFreshDenseMirrors) {
  std::shared_ptr<DynamicDataset> dyn = MakeDynamic();
  ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), "initial");
  // (rows appended, rows deleted) per phase: the size walks 150 -> 151 ->
  // 221 -> 183 -> 188 -> 118 -> 181 -> 311, crossing the 128-, 192- and
  // 256-row tile boundaries in both directions.
  const std::vector<std::pair<size_t, size_t>> phases = {
      {1, 0}, {70, 3}, {0, 35}, {5, 0}, {0, 70}, {64, 1}, {130, 0}};
  std::set<size_t> tile_counts;
  size_t step = 0;
  for (const auto& [appended, deleted] : phases) {
    if (appended == 1) {
      ASSERT_TRUE(dyn->Insert({0.3, 0.9, 0.1}).ok());
    } else if (appended > 0) {
      ASSERT_TRUE(dyn->BatchAppend(rrr::testing::FamilyRows(
                                       DataFamily::kUniform, appended, 3,
                                       23 + step))
                      .ok());
    }
    if (appended > 0) {
      const std::string tag = "step " + std::to_string(step++) + " append " +
                              std::to_string(appended);
      ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), tag);
      tile_counts.insert(dyn->Snapshot()->column_blocks().num_blocks());
    }
    for (size_t i = 0; i < deleted; ++i) {
      const size_t n = dyn->size();
      const int32_t id = static_cast<int32_t>((step * 37) % n);
      ASSERT_TRUE(dyn->Delete(id).ok());
      const std::string tag = "step " + std::to_string(step++) +
                              " delete " + std::to_string(id);
      ExpectMirrorMatchesFreshBuild(*dyn->Snapshot(), tag);
      tile_counts.insert(dyn->Snapshot()->column_blocks().num_blocks());
    }
  }
  EXPECT_EQ(dyn->size(), 311u);
  EXPECT_EQ(tile_counts, (std::set<size_t>{2, 3, 4, 5}));
}

/// The candidate-index options given to DynamicDataset::Create govern every
/// version it publishes, not just the first: on a dataset far below the
/// default min_dataset_size, forced options build an index on an appended
/// and on a deleted version, and the defaults decline on both. Results are
/// bit-identical either way, so only the served index shows the options.
TEST(DynamicOptionsTest, CandidateOptionsReachEveryPublishedVersion) {
  const std::vector<std::vector<double>> rows =
      rrr::testing::FamilyRows(DataFamily::kCorrelated, 60, 3, 29);
  for (const bool force : {false, true}) {
    SCOPED_TRACE(force ? "forced" : "default");
    Result<std::shared_ptr<DynamicDataset>> dyn = DynamicDataset::Create(
        MakeDataset(rows), force ? ForceBuild() : CandidateIndexOptions());
    ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
    const auto expect_served = [&](const std::string& tag) {
      const std::shared_ptr<const PreparedDataset> snap = (*dyn)->Snapshot();
      Result<std::shared_ptr<const CandidateIndex>> index =
          snap->SharedCandidateIndex(3);
      ASSERT_TRUE(index.ok()) << tag << ": " << index.status().ToString();
      EXPECT_EQ(*index != nullptr, force) << tag;
      // Drop the counts this ask paid for, so the next version cannot
      // serve an index from carried-forward counts alone.
      snap->EvictSharedArtifacts();
    };
    ASSERT_TRUE((*dyn)->Insert({0.9, 0.8, 0.7}).ok());
    expect_served("append");
    ASSERT_TRUE((*dyn)->Delete(0).ok());
    expect_served("delete");
  }
}

}  // namespace
}  // namespace core
}  // namespace rrr
