// Eviction protocol of the shared-artifact caches: evicting only severs
// cache references (in-flight holders keep their shared_ptrs), and every
// artifact rebuilds bit-identically on the next touch because it is a
// deterministic pure function of the dataset. The columnar mirror is the
// exception by design: built at creation, owned for the object's lifetime,
// and never evicted. The concurrent hammer below is the TSan witness that
// eviction never races a live query.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/prepared_dataset.h"
#include "data/generators.h"
#include "test_util.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace core {
namespace {

std::shared_ptr<const PreparedDataset> Prepare(size_t n, size_t d,
                                               uint64_t seed) {
  Result<std::shared_ptr<const PreparedDataset>> prepared =
      PreparedDataset::Create(data::GenerateUniform(n, d, seed));
  EXPECT_TRUE(prepared.ok());
  return prepared.value();
}

TEST(ArtifactEviction, EvictedArtifactsRebuildBitIdentically) {
  std::shared_ptr<const PreparedDataset> prepared = Prepare(400, 3, 21);
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(prepared);
  ASSERT_TRUE(engine.ok());

  Result<QueryResult> warm = engine.value()->Solve(3);
  ASSERT_TRUE(warm.ok());
  const std::vector<int32_t> ids_before = warm.value().representative;
  const size_t bytes_warm = prepared->ApproxArtifactBytes().evictable() +
                            engine.value()->ApproxMemoBytes();
  ASSERT_GT(bytes_warm, 0u);

  const size_t freed =
      prepared->EvictSharedArtifacts() + engine.value()->EvictMemos();
  EXPECT_EQ(freed, bytes_warm);
  EXPECT_EQ(prepared->ApproxArtifactBytes().evictable(), 0u);
  EXPECT_EQ(engine.value()->ApproxMemoBytes(), 0u);

  // Rebuild on next touch: same representative, artifacts repopulate.
  Result<QueryResult> rebuilt = engine.value()->Solve(3);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt.value().diagnostics.result_from_cache);
  EXPECT_EQ(rebuilt.value().representative, ids_before);
  EXPECT_GT(prepared->ApproxArtifactBytes().evictable(), 0u);
}

TEST(ArtifactEviction, ByteAccountingCoversEveryArtifactClass) {
  std::shared_ptr<const PreparedDataset> prepared = Prepare(300, 3, 5);
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(prepared);
  ASSERT_TRUE(engine.ok());
  const PreparedDataset::ArtifactBytes cold = prepared->ApproxArtifactBytes();
  EXPECT_GT(cold.dataset, 0u);  // raw rows always counted, never evictable
  EXPECT_EQ(cold.total(), cold.dataset + cold.evictable());

  ASSERT_TRUE(engine.value()->Solve(4).ok());
  const PreparedDataset::ArtifactBytes warm = prepared->ApproxArtifactBytes();
  EXPECT_GT(warm.evictable(), cold.evictable());
  EXPECT_EQ(warm.dataset, cold.dataset);
  EXPECT_GT(engine.value()->ApproxMemoBytes(), 0u);
}

TEST(ArtifactEviction, MirrorExistsRightAfterCreate) {
  std::shared_ptr<const PreparedDataset> prepared = Prepare(300, 3, 7);
  const data::ColumnBlocks& mirror = prepared->column_blocks();
  EXPECT_EQ(mirror.source(), &prepared->dataset());
  EXPECT_EQ(mirror.rows(), prepared->size());
  EXPECT_EQ(mirror.dims(), prepared->dims());
  EXPECT_TRUE(mirror.has_block_bounds());
  // Counted with the rows, not in the evictable pool.
  const PreparedDataset::ArtifactBytes bytes = prepared->ApproxArtifactBytes();
  EXPECT_EQ(bytes.dataset,
            prepared->size() * prepared->dims() * sizeof(double) +
                mirror.ApproxBytes());
  EXPECT_EQ(bytes.evictable(), 0u);
  // The shared-pointer shim hands out the same mirror, always as a hit.
  bool hit = false;
  Result<std::shared_ptr<const data::ColumnBlocks>> shared =
      prepared->SharedColumnBlocks(4, {}, &hit);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value().get(), &mirror);
  EXPECT_TRUE(hit);
}

TEST(ArtifactEviction, MirrorSurvivesEviction) {
  std::shared_ptr<const PreparedDataset> prepared = Prepare(300, 3, 11);
  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(prepared);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->Solve(4).ok());
  const data::ColumnBlocks* before = &prepared->column_blocks();
  const size_t dataset_bytes = prepared->ApproxArtifactBytes().dataset;

  ASSERT_GT(prepared->EvictSharedArtifacts(), 0u);
  EXPECT_EQ(&prepared->column_blocks(), before);
  EXPECT_EQ(prepared->ApproxArtifactBytes().dataset, dataset_bytes);
  const data::ColumnBlocks fresh =
      testing::MustBuildBlocks(prepared->dataset());
  const topk::LinearFunction diagonal(geometry::Vec(3, 1.0));
  EXPECT_EQ(topk::TopKScan(prepared->column_blocks(), diagonal, 10),
            topk::TopKScan(fresh, diagonal, 10));
}

TEST(ArtifactEviction, EvictionClearsTheDeclineFloor) {
  // Anti-correlated rows: the candidate pre-check predicts a near-full
  // band, which then answers every larger k without a build.
  Result<std::shared_ptr<const PreparedDataset>> created =
      PreparedDataset::Create(data::GenerateAnticorrelated(5000, 4, 3));
  ASSERT_TRUE(created.ok());
  const PreparedDataset& prepared = *created.value();
  bool hit = true;
  ASSERT_TRUE(prepared.SharedCandidateIndex(100, 1, {}, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(prepared.SharedCandidateIndex(200, 1, {}, &hit).ok());
  EXPECT_TRUE(hit) << "k = 200 sits above the floor";

  prepared.EvictSharedArtifacts();
  Result<std::shared_ptr<const CandidateIndex>> after =
      prepared.SharedCandidateIndex(200, 1, {}, &hit);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, nullptr);
  EXPECT_FALSE(hit) << "eviction drops the floor: the next ask recomputes";
  ASSERT_TRUE(prepared.SharedCandidateIndex(400, 1, {}, &hit).ok());
  EXPECT_TRUE(hit) << "the recomputed decline sets the floor again";
}

/// The retained candidate chain's shape: at most ceil(log2 n) + 1
/// indexes, ascending in k, each band under half the next, and exactly
/// their ApproxBytes as the candidates share of the byte accounting (each
/// index counted once, however many k's it served).
void ExpectGeometricChain(const PreparedDataset& prepared,
                          const std::string& where) {
  const std::vector<std::shared_ptr<const CandidateIndex>> chain =
      prepared.CandidateChain();
  const auto bound = static_cast<size_t>(
      std::ceil(std::log2(static_cast<double>(prepared.size())))) + 1;
  EXPECT_LE(chain.size(), bound) << where;
  size_t bytes = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    bytes += chain[i]->ApproxBytes();
    if (i + 1 < chain.size()) {
      EXPECT_LT(chain[i]->k(), chain[i + 1]->k()) << where;
      EXPECT_LT(2 * chain[i]->band_size(), chain[i + 1]->band_size())
          << where << ": bands " << i << " and " << i + 1;
    }
  }
  EXPECT_EQ(prepared.ApproxArtifactBytes().candidates, bytes) << where;
}

TEST(ArtifactEviction, CandidateChainStaysGeometricAcrossSchedules) {
  // The cold_explore SOLVE ladder, the same ladder climbed, and a DUAL
  // search's zigzag, one after the other over one prepared dataset, with
  // every band built whatever its profitability.
  CandidateIndexOptions options;
  options.min_dataset_size = 0;
  options.max_band_fraction = 1.0;
  options.precheck_sample = 0;
  options.budget_slack_per_tuple = 0;
  for (size_t d : {3u, 4u}) {
    Result<std::shared_ptr<const PreparedDataset>> created =
        PreparedDataset::Create(data::GenerateUniform(5000, d, 31), options);
    ASSERT_TRUE(created.ok());
    const PreparedDataset& prepared = *created.value();
    const std::vector<size_t> ladder = {500, 400, 350, 300, 260, 230, 200, 180,
                                        160, 140, 120, 100, 90,  80,  70};
    const std::vector<std::pair<const char*, std::vector<size_t>>> schedules =
        {{"ladder", ladder},
         {"ascending", {ladder.rbegin(), ladder.rend()}},
         {"zigzag",
          {10000, 5000, 2500, 1250, 625, 937, 781, 859, 820, 839, 829, 824,
           822, 821}}};
    for (const auto& [name, ks] : schedules) {
      for (size_t k : ks) {
        Result<std::shared_ptr<const CandidateIndex>> served =
            prepared.SharedCandidateIndex(k, 1);
        ASSERT_TRUE(served.ok());
        ASSERT_NE(*served, nullptr);
      }
      ExpectGeometricChain(prepared,
                           "d=" + std::to_string(d) + " after " + name);
    }
  }
}

TEST(ArtifactEviction, EvictionEmptiesTheChainAndClearsTheFloor) {
  // Uniform 4-D rows under the default build policy: k = 70 builds an
  // index, and k = n (a full band) is declined by the pre-check, which
  // sets the decline floor.
  Result<std::shared_ptr<const PreparedDataset>> created =
      PreparedDataset::Create(data::GenerateUniform(5000, 4, 41));
  ASSERT_TRUE(created.ok());
  const PreparedDataset& prepared = *created.value();
  Result<std::shared_ptr<const CandidateIndex>> built =
      prepared.SharedCandidateIndex(70, 1);
  ASSERT_TRUE(built.ok());
  ASSERT_NE(*built, nullptr);
  bool hit = true;
  ASSERT_TRUE(prepared.SharedCandidateIndex(5000, 1, {}, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(prepared.SharedCandidateIndex(5000, 1, {}, &hit).ok());
  EXPECT_TRUE(hit) << "k = 5000 sits at the floor";
  EXPECT_EQ(prepared.CandidateChain().size(), 1u);
  EXPECT_EQ(prepared.ApproxArtifactBytes().candidates, (*built)->ApproxBytes());

  EXPECT_GT(prepared.EvictSharedArtifacts(), 0u);
  EXPECT_TRUE(prepared.CandidateChain().empty());
  EXPECT_EQ(prepared.ApproxArtifactBytes().candidates, 0u);
  EXPECT_EQ(prepared.ApproxArtifactBytes().candidate_counts, 0u);
  ASSERT_TRUE(prepared.SharedCandidateIndex(5000, 1, {}, &hit).ok());
  EXPECT_FALSE(hit) << "eviction drops the floor: the pre-check runs again";
  Result<std::shared_ptr<const CandidateIndex>> rebuilt =
      prepared.SharedCandidateIndex(70, 1, {}, &hit);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(hit) << "eviction drops the chain: k = 70 builds again";
  ASSERT_NE(*rebuilt, nullptr);
  EXPECT_EQ((*rebuilt)->band_ids(), (*built)->band_ids());
}

TEST(ArtifactEviction, LazyCellEvictSkipsIdleAndComputing) {
  std::shared_ptr<const PreparedDataset> prepared = Prepare(100, 2, 3);
  // Nothing lazy computed yet (the eager mirror is not evictable):
  // eviction finds nothing and frees nothing.
  EXPECT_EQ(prepared->EvictSharedArtifacts(), 0u);
}

TEST(ArtifactEviction, ConcurrentEvictionNeverRacesQueries) {
  std::shared_ptr<const PreparedDataset> prepared = Prepare(500, 3, 17);
  Result<std::shared_ptr<RrrEngine>> created = RrrEngine::Create(prepared);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<RrrEngine> engine = created.value();

  // Baseline answers to compare every concurrent result against.
  std::vector<std::vector<int32_t>> expected;
  for (size_t k = 2; k <= 5; ++k) {
    Result<QueryResult> result = engine->Solve(k);
    ASSERT_TRUE(result.ok());
    expected.push_back(result.value().representative);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const size_t k = 2 + (static_cast<size_t>(t) + i) % 4;
        Result<QueryResult> result = engine->Solve(k);
        if (!result.ok() ||
            result.value().representative != expected[k - 2]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread evictor([&] {
    while (!stop.load()) {
      prepared->EvictSharedArtifacts();
      engine->EvictMemos();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  evictor.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ArtifactEviction, RebuildFaultDegradesThenHealsBitIdentically) {
  FailpointRegistry::Instance().DisarmAll();
  std::shared_ptr<const PreparedDataset> prepared = Prepare(350, 3, 9);
  EngineOptions options;
  options.artifact_failure_cooldown_ms = 0;  // re-attempt immediately
  Result<std::shared_ptr<RrrEngine>> created =
      RrrEngine::Create(prepared, options);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<RrrEngine> engine = created.value();
  QueryOptions recompute;
  recompute.use_cache = false;  // every Solve recomputes: no memo veil

  // Warm build, then the oracle answer and a non-empty evictable pool.
  Result<QueryResult> warm = engine->Solve(3, recompute);
  ASSERT_TRUE(warm.ok());
  const std::vector<int32_t> oracle = warm.value().representative;
  EXPECT_FALSE(warm.value().diagnostics.degraded);
  ASSERT_GT(prepared->ApproxArtifactBytes().evictable(), 0u);

  // Evict everything, then make the candidate-index REBUILD die: the
  // query must fall back to the unpruned mirror scan, not error.
  ASSERT_GT(prepared->EvictSharedArtifacts(), 0u);
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("core.artifact.candidate_index", "once")
                  .ok());
  Result<QueryResult> degraded = engine->Solve(3, recompute);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.value().diagnostics.degraded);
  EXPECT_EQ(degraded.value().diagnostics.skyband_size, 0u);  // no index ran
  EXPECT_EQ(degraded.value().representative, oracle);

  // Fault cleared (once self-disarmed): the next query rebuilds the
  // artifact bit-identically and sheds the degraded flag.
  Result<QueryResult> healed = engine->Solve(3, recompute);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.value().diagnostics.degraded);
  EXPECT_EQ(healed.value().representative, oracle);
  EXPECT_GT(prepared->ApproxArtifactBytes().evictable(), 0u);
  FailpointRegistry::Instance().DisarmAll();
}

TEST(ArtifactEviction, CooldownSkipsRebuildAttemptsUntilItExpires) {
  FailpointRegistry::Instance().DisarmAll();
  std::shared_ptr<const PreparedDataset> prepared = Prepare(200, 3, 13);
  EngineOptions options;
  options.artifact_failure_cooldown_ms = 60'000;  // effectively forever
  Result<std::shared_ptr<RrrEngine>> created =
      RrrEngine::Create(prepared, options);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<RrrEngine> engine = created.value();
  QueryOptions recompute;
  recompute.use_cache = false;  // every Solve recomputes: no memo veil

  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("core.artifact.candidate_index", "once")
                  .ok());
  Result<QueryResult> first = engine->Solve(3, recompute);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().diagnostics.degraded);

  // The fault is gone (once drained) but the cooldown is live: the next
  // query must not even attempt the build — degraded again, same answer.
  Result<QueryResult> second = engine->Solve(3, recompute);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().diagnostics.degraded);
  EXPECT_EQ(second.value().representative, first.value().representative);
  EXPECT_EQ(second.value().diagnostics.skyband_size, 0u);
  FailpointRegistry::Instance().DisarmAll();
}

}  // namespace
}  // namespace core
}  // namespace rrr
