// The k-nested candidate chain behind PreparedDataset::SharedCandidateIndex:
// a request at k is served by the narrowest retained K-band index with
// K >= k whose band holds at most twice the k-band, and an index is built
// at k only when none qualifies. A K-band answers every k' <= K
// bit-identically, so nothing downstream may notice which band served it.
// These tests walk the engine's k patterns — the cold_explore SOLVE ladder
// 500 -> 70, the same ladder ascending, and a DUAL search's zigzag — over
// one prepared dataset, and check every served index against the chain
// contract and every solver against a fresh k-band build and the unpruned
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/candidate_index.h"
#include "core/engine.h"
#include "core/find_ranges.h"
#include "core/kset_graph.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/prepared_dataset.h"
#include "core/rrr2d.h"
#include "data/generators.h"
#include "test_util.h"
#include "topk/rank.h"

namespace rrr {
namespace core {
namespace {

using IndexPtr = std::shared_ptr<const CandidateIndex>;

struct Schedule {
  const char* name;
  std::vector<size_t> ks;
};

/// cold_explore's SOLVE ladder, the same ladder climbed, and the probe
/// order of a DUAL search that halves from 10000 and then bisects.
std::vector<Schedule> Schedules() {
  const std::vector<size_t> ladder = {500, 400, 350, 300, 260, 230, 200, 180,
                                      160, 140, 120, 100, 90,  80,  70};
  return {{"ladder", ladder},
          {"ascending", {ladder.rbegin(), ladder.rend()}},
          {"zigzag",
           {10000, 5000, 2500, 1250, 625, 937, 781, 859, 820, 839, 829, 824,
            822, 821}}};
}

/// The same three shapes at k's small enough for full k-set enumeration.
std::vector<Schedule> SmallSchedules() {
  return {{"ladder", {3, 2, 1}},
          {"ascending", {1, 2, 3}},
          {"zigzag", {4, 2, 1, 3, 2}}};
}

/// Builds every band, whatever its profitability: the contract must hold
/// where pruning does not pay too.
CandidateIndexOptions ForceBuild() {
  CandidateIndexOptions options;
  options.min_dataset_size = 0;
  options.max_band_fraction = 1.0;
  options.precheck_sample = 0;
  options.budget_slack_per_tuple = 0;
  return options;
}

std::shared_ptr<const PreparedDataset> PrepareForced(
    const data::Dataset& ds) {
  Result<std::shared_ptr<const PreparedDataset>> prepared =
      PreparedDataset::Create(ds, ForceBuild());
  RRR_CHECK(prepared.ok()) << prepared.status().ToString();
  return prepared.value();
}

/// A fresh, uncached k-band index over `ds`.
IndexPtr FreshBand(const data::Dataset& ds, size_t k) {
  Result<CandidateIndex::Outcome> outcome =
      CandidateIndex::Create(ds, k, ForceBuild());
  RRR_CHECK(outcome.ok()) << outcome.status().ToString();
  RRR_CHECK(outcome->index != nullptr) << outcome->decline_reason;
  return outcome->index;
}

IndexPtr MustServe(const PreparedDataset& p, size_t k, size_t threads,
                   bool* hit = nullptr) {
  Result<IndexPtr> served = p.SharedCandidateIndex(k, threads, {}, hit);
  RRR_CHECK(served.ok()) << served.status().ToString();
  RRR_CHECK(served.value() != nullptr) << "forced build declined at k=" << k;
  return served.value();
}

/// The chain's served indexes do not depend on the count's thread budget:
/// the same schedule through a 4-thread prepared dataset must serve the
/// same band at the same k.
void ExpectSameAtFourThreads(const PreparedDataset& p4, size_t k,
                             const CandidateIndex& served,
                             const std::string& where) {
  const IndexPtr served4 = MustServe(p4, k, 4);
  EXPECT_EQ(served4->k(), served.k()) << where;
  EXPECT_EQ(served4->band_ids(), served.band_ids()) << where;
}

struct Family {
  std::string name;
  data::Dataset data;
};

/// A small distinct pool cycled to n rows with coordinates quantized to
/// eighths: exact duplicates and cross-row score ties everywhere, so the
/// id tie-break decides band membership and top-k order.
data::Dataset TieHeavy(size_t n, size_t d, uint64_t seed) {
  const data::Dataset pool = data::GenerateUniform(n / 8 + 2, d, seed);
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double* r = pool.row(i % pool.size());
    std::vector<double> row(r, r + d);
    for (double& v : row) v = std::round(v * 8.0) / 8.0;
    rows.push_back(std::move(row));
  }
  return testing::MakeDataset(rows);
}

std::vector<Family> Families(size_t n, uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"uniform-3d", data::GenerateUniform(n, 3, seed)});
  families.push_back({"uniform-4d", data::GenerateUniform(n, 4, seed + 1)});
  families.push_back(
      {"correlated-3d", data::GenerateCorrelated(n, 3, seed + 2, 0.8)});
  families.push_back(
      {"correlated-4d", data::GenerateCorrelated(n, 4, seed + 3, 0.8)});
  families.push_back(
      {"anticorrelated-3d", data::GenerateAnticorrelated(n, 3, seed + 4)});
  families.push_back({"tie-heavy-3d", TieHeavy(n, 3, seed + 5)});
  return families;
}

std::vector<Family> Families2d(size_t n, uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"uniform-2d", data::GenerateUniform(n, 2, seed)});
  families.push_back(
      {"correlated-2d", data::GenerateCorrelated(n, 2, seed + 1, 0.8)});
  families.push_back(
      {"anticorrelated-2d", data::GenerateAnticorrelated(n, 2, seed + 2)});
  families.push_back({"tie-heavy-2d", TieHeavy(n, 2, seed + 3)});
  return families;
}

/// Fresh k-band indexes, built once per k and shared by every schedule.
class FreshBands {
 public:
  explicit FreshBands(const data::Dataset& ds) : ds_(ds) {}
  const IndexPtr& At(size_t k) {
    const size_t kk = std::min(k, ds_.size());
    IndexPtr& index = bands_[kk];
    if (index == nullptr) index = FreshBand(ds_, kk);
    return index;
  }

 private:
  const data::Dataset& ds_;
  std::map<size_t, IndexPtr> bands_;
};

/// The chain contract for one served index: valid for k, a superset of
/// the exact k-band, and at most twice its rows.
void ExpectServes(const CandidateIndex& served, const CandidateIndex& fresh,
                  size_t k, const std::string& where) {
  const size_t kk = std::min(k, served.full_dataset()->size());
  EXPECT_GE(served.k(), kk) << where;
  EXPECT_TRUE(std::includes(served.band_ids().begin(),
                            served.band_ids().end(), fresh.band_ids().begin(),
                            fresh.band_ids().end()))
      << where << ": the served band misses k-band rows";
  EXPECT_LE(served.band_size(), 2 * fresh.band_size()) << where;
}

/// Axis, diagonal and random weight vectors.
std::vector<topk::LinearFunction> Probes(size_t d, uint64_t seed) {
  std::vector<topk::LinearFunction> funcs;
  for (size_t axis = 0; axis < d; ++axis) {
    geometry::Vec w(d, 0.0);
    w[axis] = 1.0;
    funcs.emplace_back(std::move(w));
  }
  funcs.emplace_back(geometry::Vec(d, 1.0));
  Rng rng(seed);
  for (int i = 0; i < 2; ++i) {
    funcs.emplace_back(rng.UnitWeightVector(static_cast<int>(d)));
  }
  return funcs;
}

TEST(CandidateChainTest, ServedBandsKeepTheContractAndAnswerBitIdentically) {
  for (const Family& family : Families(1500, 101)) {
    const data::Dataset& ds = family.data;
    FreshBands fresh(ds);
    const data::ColumnBlocks full = testing::MustBuildBlocks(ds);
    const std::vector<topk::LinearFunction> probes = Probes(ds.dims(), 7);
    for (const Schedule& schedule : Schedules()) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        std::shared_ptr<const PreparedDataset> p = PrepareForced(ds);
        size_t wider = 0;  // requests served by an index built at a larger k
        for (size_t k : schedule.ks) {
          const std::string where = family.name + " " + schedule.name +
                                    " threads=" + std::to_string(threads) +
                                    " k=" + std::to_string(k);
          const IndexPtr served = MustServe(*p, k, threads);
          const IndexPtr& band = fresh.At(k);
          ExpectServes(*served, *band, k, where);
          const size_t kk = std::min(k, ds.size());
          if (served->k() > kk) ++wider;
          Rng rng(k);
          for (const topk::LinearFunction& f : probes) {
            EXPECT_EQ(served->TopK(f, kk), band->TopK(f, kk)) << where;
            EXPECT_EQ(served->TopKSet(f, kk), band->TopKSet(f, kk)) << where;
            // A representative-like subset (certified within the band) and
            // arbitrary ids (usually outside it: the full-scan fallback).
            std::vector<int32_t> near = band->TopKSet(f, std::max<size_t>(
                                                             1, kk / 4));
            near.resize(std::min<size_t>(near.size(), 3));
            std::vector<int32_t> far;
            for (int i = 0; i < 3; ++i) {
              far.push_back(static_cast<int32_t>(
                  rng.UniformInt(0, static_cast<int64_t>(ds.size()) - 1)));
            }
            for (const std::vector<int32_t>* subset : {&near, &far}) {
              const int64_t want = topk::MinRankOfSubset(full, f, *subset);
              EXPECT_EQ(
                  served->MinRankOfSubset(f, *subset, p->column_blocks()),
                  want)
                  << where;
              EXPECT_EQ(band->MinRankOfSubset(f, *subset, full), want)
                  << where;
            }
          }
        }
        if (schedule.ks.front() > schedule.ks.back()) {
          EXPECT_GT(wider, 0u) << family.name << " " << schedule.name
                               << ": no request reused a wider band";
        }
      }
    }
  }
}

struct MdrcRun {
  StatusCode code = StatusCode::kOk;
  std::vector<int32_t> rep;
  size_t nodes = 0;
};

MdrcRun RunMdrc(const data::Dataset& ds, size_t k, size_t threads,
                const CandidateIndex* candidates,
                const data::ColumnBlocks& blocks) {
  MdrcOptions options;
  options.threads = threads;
  // Tie-heavy data can split to the depth cap; a small budget keeps the
  // exhausted path comparable and cheap.
  options.max_nodes = 20000;
  MdrcStats stats;
  Result<std::vector<int32_t>> rep = SolveMdrc(
      ds, k, options, &stats, {}, nullptr, candidates, &blocks);
  MdrcRun run;
  run.code = rep.status().code();
  if (rep.ok()) run.rep = std::move(rep).value();
  run.nodes = stats.nodes;
  return run;
}

std::vector<std::vector<int32_t>> SampleSets(const data::Dataset& ds,
                                             size_t k, size_t threads,
                                             const CandidateIndex* candidates,
                                             const data::ColumnBlocks& blocks,
                                             size_t* drawn) {
  KSetSamplerOptions sampler;
  // At large k nearly every draw is a new k-set, so the draw cap, not the
  // miss streak, ends most samples.
  sampler.termination_count = 20;
  sampler.max_samples = 50;
  sampler.threads = threads;
  Result<KSetSampleResult> sample =
      SampleKSets(ds, k, sampler, {}, candidates, &blocks);
  RRR_CHECK(sample.ok()) << sample.status().ToString();
  *drawn = sample->samples_drawn;
  std::vector<std::vector<int32_t>> sets;
  for (const KSet& set : sample->ksets.sets()) sets.push_back(set.ids);
  return sets;
}

TEST(CandidateChainTest, MdrcAndSamplerMatchFreshBandAndUnpruned) {
  for (const Family& family : Families(800, 211)) {
    const data::Dataset& ds = family.data;
    FreshBands fresh(ds);
    const data::ColumnBlocks full = testing::MustBuildBlocks(ds);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::map<size_t, MdrcRun> unpruned;
      std::map<size_t, std::pair<size_t, std::vector<std::vector<int32_t>>>>
          unpruned_sets;
      for (const Schedule& schedule : Schedules()) {
        std::shared_ptr<const PreparedDataset> p = PrepareForced(ds);
        for (size_t k : schedule.ks) {
          const size_t kk = std::min(k, ds.size());
          const std::string where = family.name + " " + schedule.name +
                                    " threads=" + std::to_string(threads) +
                                    " k=" + std::to_string(k);
          const IndexPtr served = MustServe(*p, k, threads);
          ExpectServes(*served, *fresh.At(k), k, where);

          auto cold = unpruned.find(kk);
          if (cold == unpruned.end()) {
            cold = unpruned.emplace(kk, RunMdrc(ds, kk, threads, nullptr, full))
                       .first;
          }
          for (const CandidateIndex* index :
               {served.get(), fresh.At(k).get()}) {
            const MdrcRun run =
                RunMdrc(*index->full_dataset(), kk, threads, index,
                        index == served.get() ? p->column_blocks() : full);
            EXPECT_EQ(run.code, cold->second.code) << where;
            EXPECT_EQ(run.rep, cold->second.rep) << where;
            EXPECT_EQ(run.nodes, cold->second.nodes) << where;
          }

          auto sets = unpruned_sets.find(kk);
          if (sets == unpruned_sets.end()) {
            size_t drawn = 0;
            std::vector<std::vector<int32_t>> got =
                SampleSets(ds, kk, threads, nullptr, full, &drawn);
            sets = unpruned_sets.emplace(kk, std::make_pair(drawn, got)).first;
          }
          for (const CandidateIndex* index :
               {served.get(), fresh.At(k).get()}) {
            size_t drawn = 0;
            EXPECT_EQ(
                SampleSets(*index->full_dataset(), kk, threads, index,
                           index == served.get() ? p->column_blocks() : full,
                           &drawn),
                sets->second.second)
                << where;
            EXPECT_EQ(drawn, sets->second.first) << where;
          }
        }
      }
    }
  }
}

TEST(CandidateChainTest, KSetGraphMatchesFreshBandAndUnpruned) {
  // The graph enumerates every k-set, and runs an LP per candidate swap:
  // small k's over 24 rows in 3D.
  for (const Family& family : Families(24, 307)) {
    if (family.data.dims() != 3) continue;
    const data::Dataset& ds = family.data;
    FreshBands fresh(ds);
    std::map<size_t, Result<KSetCollection>> unpruned;
    for (const Schedule& schedule : SmallSchedules()) {
      std::shared_ptr<const PreparedDataset> p = PrepareForced(ds);
      std::shared_ptr<const PreparedDataset> p4 = PrepareForced(ds);
      for (size_t k : schedule.ks) {
        const std::string where = family.name + " " + schedule.name +
                                  " k=" + std::to_string(k);
        const IndexPtr served = MustServe(*p, k, 1);
        ExpectServes(*served, *fresh.At(k), k, where);
        ExpectSameAtFourThreads(*p4, k, *served, where);
        auto want = unpruned.find(k);
        if (want == unpruned.end()) {
          want = unpruned.emplace(k, EnumerateKSetsGraph(ds, k)).first;
        }
        for (const CandidateIndex* index : {served.get(), fresh.At(k).get()}) {
          Result<KSetCollection> got =
              EnumerateKSetsGraph(*index->full_dataset(), k, {}, {}, index);
          ASSERT_EQ(got.ok(), want->second.ok()) << where;
          if (!got.ok()) continue;  // degenerate data fails both paths alike
          ASSERT_EQ(got->size(), want->second->size()) << where;
          for (size_t i = 0; i < got->size(); ++i) {
            EXPECT_EQ(got->sets()[i].ids, want->second->sets()[i].ids)
                << where << " set " << i;
          }
        }
      }
    }
  }
}

TEST(CandidateChainTest, FindRangesAnd2dRrrMatchFreshBandAndUnpruned) {
  for (const Family& family : Families2d(250, 401)) {
    const data::Dataset& ds = family.data;
    FreshBands fresh(ds);
    const data::ColumnBlocks full = testing::MustBuildBlocks(ds);
    const AngularSweep sweep(ds);
    std::map<size_t, std::vector<ItemRange>> ranges;
    std::map<size_t, std::vector<int32_t>> reps;
    for (const Schedule& schedule : Schedules()) {
      std::shared_ptr<const PreparedDataset> p = PrepareForced(ds);
      std::shared_ptr<const PreparedDataset> p4 = PrepareForced(ds);
      for (size_t k : schedule.ks) {
        const size_t kk = std::min(k, ds.size());
        const std::string where = family.name + " " + schedule.name +
                                  " k=" + std::to_string(k);
        const IndexPtr served = MustServe(*p, k, 1);
        ExpectServes(*served, *fresh.At(k), k, where);
        ExpectSameAtFourThreads(*p4, k, *served, where);
        if (ranges.count(kk) == 0) {
          Result<std::vector<ItemRange>> want =
              FindRanges(ds, kk, {}, &sweep);
          ASSERT_TRUE(want.ok()) << where;
          ranges[kk] = std::move(want).value();
          Result<std::vector<int32_t>> rep =
              Solve2dRrr(ds, kk, {}, {}, &sweep, nullptr, &full);
          ASSERT_TRUE(rep.ok()) << where;
          reps[kk] = std::move(rep).value();
        }
        for (const CandidateIndex* index : {served.get(), fresh.At(k).get()}) {
          const data::Dataset& on = *index->full_dataset();
          Result<std::vector<ItemRange>> got =
              FindRanges(on, kk, {}, nullptr, index);
          ASSERT_TRUE(got.ok()) << where;
          const std::vector<ItemRange>& want = ranges[kk];
          ASSERT_EQ(got->size(), want.size()) << where;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ((*got)[i].in_topk, want[i].in_topk) << where;
            if (want[i].in_topk) {
              EXPECT_EQ((*got)[i].begin, want[i].begin) << where;
              EXPECT_EQ((*got)[i].end, want[i].end) << where;
            }
          }
          Result<std::vector<int32_t>> rep = Solve2dRrr(
              on, kk, {}, {}, nullptr, index,
              index == served.get() ? &p->column_blocks() : &full);
          ASSERT_TRUE(rep.ok()) << where;
          EXPECT_EQ(*rep, reps[kk]) << where;
        }
      }
    }
  }
}

TEST(CandidateChainTest, EngineLadderMatchesColdSolves) {
  // Through the engine, the served band also fills the shared MDRC corner
  // memo, whose entries then serve later k's: representatives and node
  // counts must still equal a cold unpruned solve, and the reported
  // skyband_size is the served band, between the k-band and twice it.
  const data::Dataset ds = data::GenerateUniform(1500, 3, 503);
  FreshBands fresh(ds);
  Result<std::shared_ptr<RrrEngine>> engine =
      RrrEngine::Create(PrepareForced(ds));
  ASSERT_TRUE(engine.ok());
  QueryOptions query;
  query.algorithm = Algorithm::kMdRc;
  for (const Schedule& schedule : Schedules()) {
    for (size_t k : schedule.ks) {
      const size_t kk = std::min(k, ds.size());
      const std::string where =
          std::string(schedule.name) + " k=" + std::to_string(k);
      Result<QueryResult> solved = (*engine)->Solve(k, query);
      ASSERT_TRUE(solved.ok()) << where;
      if (solved->diagnostics.result_from_cache) continue;
      MdrcStats stats;
      Result<std::vector<int32_t>> cold = SolveMdrc(ds, kk, {}, &stats);
      ASSERT_TRUE(cold.ok()) << where;
      EXPECT_EQ(solved->representative, *cold) << where;
      EXPECT_EQ(solved->diagnostics.mdrc.nodes, stats.nodes) << where;
      const size_t band = fresh.At(k)->band_size();
      EXPECT_GE(solved->diagnostics.skyband_size, band) << where;
      EXPECT_LE(solved->diagnostics.skyband_size, 2 * band) << where;
    }
  }
}

TEST(CandidateChainTest, ConcurrentCallersShareOneBuild) {
  std::shared_ptr<const PreparedDataset> p =
      PrepareForced(data::GenerateUniform(3000, 3, 601));
  constexpr size_t kCallers = 4;
  std::vector<IndexPtr> got(kCallers);
  std::vector<char> hits(kCallers, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      bool hit = false;
      got[t] = MustServe(*p, 200, 1, &hit);
      hits[t] = hit ? 1 : 0;
    });
  }
  go.store(true);
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 1; t < kCallers; ++t) EXPECT_EQ(got[t], got[0]);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0), 1)
      << "exactly one caller builds; the rest share its index";
  EXPECT_EQ(p->CandidateChain().size(), 1u);
}

}  // namespace
}  // namespace core
}  // namespace rrr
