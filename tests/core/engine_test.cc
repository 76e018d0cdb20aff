#include "core/engine.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_index.h"
#include "core/evaluator.h"
#include "core/find_ranges.h"
#include "core/kset_graph.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "data/generators.h"
#include "test_util.h"

namespace rrr {
namespace core {
namespace {

std::shared_ptr<RrrEngine> MakeEngine(const data::Dataset& ds,
                                      EngineOptions options = {}) {
  Result<std::shared_ptr<RrrEngine>> engine =
      RrrEngine::Create(data::Dataset(ds), std::move(options));
  RRR_CHECK(engine.ok()) << engine.status().ToString();
  return *engine;
}

TEST(EngineCreateTest, RejectsEmptyAndNonFiniteData) {
  EXPECT_EQ(RrrEngine::Create(data::Dataset()).status().code(),
            StatusCode::kInvalidArgument);
  Result<data::Dataset> nan_data =
      data::Dataset::FromRows({{0.5, 0.5}, {std::nan(""), 0.2}});
  ASSERT_TRUE(nan_data.ok());
  EXPECT_EQ(RrrEngine::Create(std::move(*nan_data)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RrrEngine::Create(std::shared_ptr<const PreparedDataset>())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineSolveTest, RejectsBadQueries) {
  auto engine = MakeEngine(data::GenerateUniform(30, 3, 1));
  EXPECT_EQ(engine->Solve(0).status().code(), StatusCode::kInvalidArgument);
  QueryOptions query;
  query.algorithm = Algorithm::k2dRrr;  // 3D data
  EXPECT_EQ(engine->Solve(2, query).status().code(),
            StatusCode::kInvalidArgument);
  query.algorithm = Algorithm::kConvexMaxima;  // k > 1
  EXPECT_EQ(engine->Solve(2, query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineSolveTest, MatchesLegacyFacadeOnEveryAlgorithm) {
  const data::Dataset ds2 = data::GenerateUniform(120, 2, 5);
  const data::Dataset ds3 = data::GenerateUniform(120, 3, 6);
  struct Case {
    const data::Dataset* ds;
    Algorithm algorithm;
    size_t k;
  };
  const std::vector<Case> cases = {
      {&ds2, Algorithm::k2dRrr, 4},
      {&ds3, Algorithm::kMdRrr, 5},
      {&ds3, Algorithm::kMdRc, 5},
      {&ds3, Algorithm::kConvexMaxima, 1},
  };
  for (const Case& c : cases) {
    auto engine = MakeEngine(*c.ds);
    QueryOptions query;
    query.algorithm = c.algorithm;
    Result<QueryResult> via_engine = engine->Solve(c.k, query);
    ASSERT_TRUE(via_engine.ok()) << AlgorithmName(c.algorithm) << ": "
                                 << via_engine.status().ToString();
    RrrOptions legacy;
    legacy.k = c.k;
    legacy.algorithm = c.algorithm;
    Result<RrrResult> via_free = FindRankRegretRepresentative(*c.ds, legacy);
    ASSERT_TRUE(via_free.ok());
    EXPECT_EQ(via_engine->representative, via_free->representative)
        << AlgorithmName(c.algorithm);
    EXPECT_EQ(via_engine->diagnostics.algorithm_used, c.algorithm);
  }
}

// Acceptance (a): a second identical Solve(k) on one engine returns a
// bit-identical representative and hits the memo. Here we pin the
// mechanism plus a conservative timing bound at test scale; rrrbench's
// warm_audit workload measures the memo end to end.
TEST(EngineSolveTest, RepeatSolveHitsMemoBitIdentical) {
  const data::Dataset ds = data::GenerateDotLike(5000, 42).ProjectPrefix(3);
  auto engine = MakeEngine(ds);
  Result<QueryResult> cold = engine->Solve(50);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->diagnostics.result_from_cache);
  EXPECT_GT(cold->diagnostics.mdrc.nodes, 0u);  // MDRC ran for real

  Result<QueryResult> warm = engine->Solve(50);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->diagnostics.result_from_cache);
  EXPECT_TRUE(warm->diagnostics.reused_prepared_artifacts);
  EXPECT_EQ(warm->representative, cold->representative);  // bit-identical
  EXPECT_LE(warm->diagnostics.seconds, cold->diagnostics.seconds);
  if (cold->diagnostics.seconds > 0.01) {
    // At any realistic scale the memo lookup is orders of magnitude
    // faster; only assert the ratio when the cold solve is long enough to
    // measure it robustly.
    EXPECT_LE(warm->diagnostics.seconds * 10, cold->diagnostics.seconds);
  }
}

TEST(EngineSolveTest, SharedCornerCacheMakesUncachedRerunsCheap) {
  const data::Dataset ds = data::GenerateUniform(2000, 4, 7);
  auto engine = MakeEngine(ds);
  QueryOptions no_memo;
  no_memo.use_cache = false;
  Result<QueryResult> first = engine->Solve(40, no_memo);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->diagnostics.result_from_cache);
  EXPECT_GT(first->diagnostics.mdrc.corner_evals, 0u);

  // Second full run (memo bypassed): every corner top-k is already in the
  // shared cache, so the partition re-expands without a single scan.
  Result<QueryResult> second = engine->Solve(40, no_memo);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->diagnostics.result_from_cache);
  EXPECT_EQ(second->diagnostics.mdrc.corner_evals, 0u);
  EXPECT_GT(second->diagnostics.mdrc.cache_hits, 0u);
  EXPECT_TRUE(second->diagnostics.reused_prepared_artifacts);
  EXPECT_EQ(second->representative, first->representative);
}

TEST(EngineSolveTest, SamplerCacheSharedAcrossQueries) {
  const data::Dataset ds = data::GenerateUniform(200, 3, 8);
  auto engine = MakeEngine(ds);
  QueryOptions query;
  query.algorithm = Algorithm::kMdRrr;
  query.use_cache = false;  // force both queries through the sampler path
  Result<QueryResult> first = engine->Solve(5, query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->diagnostics.sampler_from_cache);
  EXPECT_GT(first->diagnostics.sampler_samples_drawn, 0u);
  Result<QueryResult> second = engine->Solve(5, query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->diagnostics.sampler_from_cache);
  EXPECT_EQ(second->representative, first->representative);
}

// Acceptance (b): SolveDual reuses prepared artifacts across probes — every
// probe goes through the memoizing Solve on one shared PreparedDataset, so
// a repeated dual query is served entirely from the memo and a direct
// Solve at the answer's k hits the probe's cached result.
TEST(EngineDualTest, DualReusesPreparedArtifactsAcrossProbes) {
  const data::Dataset ds = data::GenerateUniform(400, 2, 9);
  auto engine = MakeEngine(ds);
  Result<DualResult> first = engine->SolveDual(8);
  ASSERT_TRUE(first.ok());
  EXPECT_GE(first->probes.size(), 2u);  // binary search probed multiple k
  for (const DualProbe& probe : first->probes) {
    EXPECT_GT(probe.k, 0u);
    EXPECT_EQ(probe.algorithm_used, Algorithm::k2dRrr);
    EXPECT_GE(probe.seconds, 0.0);
    EXPECT_FALSE(probe.from_cache);  // distinct k per probe on a cold engine
  }
  EXPECT_GE(first->seconds, 0.0);

  // A direct Solve at the returned k is served from the probe's memo entry.
  Result<QueryResult> direct = engine->Solve(first->k);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->diagnostics.result_from_cache);
  EXPECT_EQ(direct->representative, first->representative);

  // A repeated dual search replays every probe from the memo.
  Result<DualResult> again = engine->SolveDual(8);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->k, first->k);
  EXPECT_EQ(again->representative, first->representative);
  ASSERT_EQ(again->probes.size(), first->probes.size());
  for (const DualProbe& probe : again->probes) {
    EXPECT_TRUE(probe.from_cache);
  }
}

TEST(EngineDualTest, MatchesLegacyDualAndRecordsProbes) {
  const data::Dataset ds = data::GenerateUniform(200, 3, 10);
  RrrOptions base;
  base.algorithm = Algorithm::kMdRc;
  // Keep small-k probes (where MDRC's partition explodes) cheap: they
  // exhaust quickly and the search walks upward, exercising the probe
  // trail's ResourceExhausted records too.
  base.mdrc.max_nodes = 20000;
  Result<DualResult> legacy = SolveDualProblem(ds, 6, base);
  ASSERT_TRUE(legacy.ok());
  EngineOptions options;
  options.defaults = base;
  auto engine = MakeEngine(ds, options);
  Result<DualResult> via_engine = engine->SolveDual(6);
  ASSERT_TRUE(via_engine.ok());
  EXPECT_EQ(via_engine->k, legacy->k);
  EXPECT_EQ(via_engine->representative, legacy->representative);
  // The per-probe diagnostic trail (satellite): k, algorithm, timing.
  EXPECT_FALSE(legacy->probes.empty());
  for (const DualProbe& probe : legacy->probes) {
    if (probe.status == StatusCode::kOk) {
      EXPECT_EQ(probe.algorithm_used, Algorithm::kMdRc);
      EXPECT_GE(probe.seconds, 0.0);
    } else {
      EXPECT_EQ(probe.status, StatusCode::kResourceExhausted);
      EXPECT_FALSE(probe.feasible);
    }
  }
}

// Acceptance (c): concurrent Solve calls from 8 threads are TSan-clean
// (this test runs under the CI sanitizer jobs) and thread-count-invariant.
TEST(EngineConcurrencyTest, EightThreadsSolveConsistently) {
  const data::Dataset ds = data::GenerateUniform(800, 3, 11);
  auto engine = MakeEngine(ds);

  // Serial reference results, one per queried k.
  const std::vector<size_t> ks = {2, 4, 8, 16};
  std::vector<std::vector<int32_t>> reference;
  for (size_t k : ks) {
    Result<RrrResult> ref = FindRankRegretRepresentative(
        ds, [&] {
          RrrOptions o;
          o.k = k;
          return o;
        }());
    ASSERT_TRUE(ref.ok());
    reference.push_back(ref->representative);
  }

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Half the threads bypass the memo so the shared caches (corner
      // memo, sampler slots) see real concurrent compute traffic.
      QueryOptions query;
      query.use_cache = (t % 2 == 0);
      for (size_t round = 0; round < ks.size(); ++round) {
        const size_t idx = (static_cast<size_t>(t) + round) % ks.size();
        Result<QueryResult> got = engine->Solve(ks[idx], query);
        if (!got.ok() || got->representative != reference[idx]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineConcurrencyTest, ConcurrentDualAndEvaluate) {
  const data::Dataset ds = data::GenerateUniform(300, 2, 12);
  auto engine = MakeEngine(ds);
  Result<DualResult> reference = engine->SolveDual(6);
  ASSERT_TRUE(reference.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      Result<DualResult> dual = engine->SolveDual(6);
      if (!dual.ok() || dual->representative != reference->representative) {
        failures.fetch_add(1);
        return;
      }
      Result<EvalReport> eval =
          engine->Evaluate(dual->representative, dual->k);
      if (!eval.ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

// Acceptance (d): an already-expired deadline and a pre-cancelled token
// return DeadlineExceeded/Cancelled from every algorithm without partial
// output — both through the engine and through the raw entry points.
TEST(EnginePreemptionTest, PreCancelledAndExpiredFromEveryAlgorithm) {
  const data::Dataset ds2 = data::GenerateUniform(100, 2, 13);
  const data::Dataset ds3 = data::GenerateUniform(100, 3, 14);
  struct Case {
    const data::Dataset* ds;
    Algorithm algorithm;
    size_t k;
  };
  const std::vector<Case> cases = {
      {&ds2, Algorithm::k2dRrr, 3},
      {&ds3, Algorithm::kMdRrr, 3},
      {&ds3, Algorithm::kMdRc, 3},
      {&ds3, Algorithm::kConvexMaxima, 1},
  };
  CancellationSource source;
  source.RequestCancel();
  for (const Case& c : cases) {
    auto engine = MakeEngine(*c.ds);
    QueryOptions cancelled;
    cancelled.algorithm = c.algorithm;
    cancelled.exec.cancel = source.token();
    EXPECT_EQ(engine->Solve(c.k, cancelled).status().code(),
              StatusCode::kCancelled)
        << AlgorithmName(c.algorithm);

    QueryOptions expired;
    expired.algorithm = c.algorithm;
    expired.exec.deadline = Deadline::After(-1.0);
    EXPECT_EQ(engine->Solve(c.k, expired).status().code(),
              StatusCode::kDeadlineExceeded)
        << AlgorithmName(c.algorithm);
  }
}

// The order-1 path checks its deadline per separation LP, not only at entry:
// on a wide anticorrelated skyline the LPs take seconds, so a 1 ms budget
// must end the query with DeadlineExceeded, not a late answer.
TEST(EnginePreemptionTest, ConvexMaximaHonoursDeadlineMidCompute) {
  Result<std::shared_ptr<const PreparedDataset>> prepared =
      PreparedDataset::Create(data::GenerateAnticorrelated(1500, 4, 17));
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE((*prepared)->SharedSkyline().ok());  // warm the prefilter
  ExecContext ctx;
  ctx.deadline = Deadline::After(0.001);
  EXPECT_EQ((*prepared)->SharedConvexMaxima(4, ctx).status().code(),
            StatusCode::kDeadlineExceeded);

  Result<std::shared_ptr<RrrEngine>> engine = RrrEngine::Create(*prepared);
  ASSERT_TRUE(engine.ok());
  QueryOptions query;
  query.algorithm = Algorithm::kConvexMaxima;
  query.exec.deadline = Deadline::After(0.001);
  EXPECT_EQ((*engine)->Solve(1, query).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(EnginePreemptionTest, RawEntryPointsHonourPreCancellation) {
  const data::Dataset ds2 = data::GenerateUniform(60, 2, 15);
  const data::Dataset ds3 = data::GenerateUniform(60, 3, 16);
  CancellationSource source;
  source.RequestCancel();
  ExecContext cancelled;
  cancelled.cancel = source.token();
  ExecContext expired;
  expired.deadline = Deadline::After(-1.0);

  EXPECT_EQ(FindRanges(ds2, 2, cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(Solve2dRrr(ds2, 2, {}, cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(SampleKSets(ds3, 2, {}, cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(SolveMdrrrSampled(ds3, 2, {}, {}, cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(SolveMdrc(ds3, 2, {}, nullptr, cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(EnumerateKSetsGraph(ds3, 2, {}, cancelled).status().code(),
            StatusCode::kCancelled);

  EXPECT_EQ(FindRanges(ds2, 2, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Solve2dRrr(ds2, 2, {}, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(SampleKSets(ds3, 2, {}, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(SolveMdrrrSampled(ds3, 2, {}, {}, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(SolveMdrc(ds3, 2, {}, nullptr, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(EnumerateKSetsGraph(ds3, 2, {}, expired).status().code(),
            StatusCode::kDeadlineExceeded);

  // SolveMdrrr proper (collection-input form).
  Result<KSetSampleResult> sample = SampleKSets(ds3, 2, {});
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(SolveMdrrr(ds3, sample->ksets, {}, cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(SolveMdrrr(ds3, sample->ksets, {}, expired).status().code(),
            StatusCode::kDeadlineExceeded);
}

// A deadline that expires mid-run ends the raw entry points at one thread
// too, where ParallelForChunked runs the whole range as a single chunk:
// each must pump its gate inside the chunk, not only at chunk starts.
TEST(EnginePreemptionTest, RawEntryPointsHonourMidRunDeadline) {
  const data::Dataset ds = data::GenerateAnticorrelated(20000, 4, 1);
  KSetSamplerOptions sampler;
  sampler.termination_count = 200000;
  sampler.max_samples = 200000;
  SampledRegretOptions sampled;
  sampled.num_functions = 100000;
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecContext ctx;
    ctx.deadline = Deadline::After(0.01);
    EXPECT_EQ(
        CandidateIndex::CountAlwaysOutrankers(ds, 400, threads, ctx)
            .status()
            .code(),
        StatusCode::kDeadlineExceeded);

    sampler.threads = threads;
    ctx.deadline = Deadline::After(0.01);
    EXPECT_EQ(SampleKSets(ds, 10, sampler, ctx).status().code(),
              StatusCode::kDeadlineExceeded);

    sampled.threads = threads;
    ctx.deadline = Deadline::After(0.01);
    EXPECT_EQ(SampledRankRegretEstimate(ds, {0}, sampled, ctx).status().code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST(EnginePreemptionTest, MidSolveCancellationStopsLongSampler) {
  // A sampler configured to effectively never terminate on its own: the
  // solve ends promptly only if mid-loop cancellation works.
  const data::Dataset ds = data::GenerateUniform(500, 3, 17);
  EngineOptions options;
  options.defaults.algorithm = Algorithm::kMdRrr;
  options.defaults.sampler.termination_count = 1u << 30;
  options.defaults.sampler.max_samples = 1u << 30;
  auto engine = MakeEngine(ds, options);

  CancellationSource source;
  QueryOptions query;
  query.exec.cancel = source.token();
  std::atomic<bool> done{false};
  Result<QueryResult> outcome = Status::Internal("unset");
  std::thread solver([&] {
    outcome = engine->Solve(3, query);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  source.RequestCancel();
  solver.join();
  ASSERT_TRUE(done.load());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);

  // The cancelled compute must not have poisoned the shared caches: a
  // fresh un-preempted query with a sane sampler succeeds.
  EngineOptions sane;
  sane.defaults.algorithm = Algorithm::kMdRrr;
  auto engine2 = MakeEngine(ds, sane);
  EXPECT_TRUE(engine2->Solve(3).ok());
}

TEST(EnginePreemptionTest, DeadlineBoundsLongMdrcSolve) {
  // MDRC at a k far below the paper's regime grows a deep partition tree;
  // a short deadline must cut it off near the budget, not run unbounded.
  const data::Dataset ds = data::GenerateUniform(20000, 4, 18);
  auto engine = MakeEngine(ds);
  QueryOptions query;
  query.algorithm = Algorithm::kMdRc;
  query.exec.deadline = Deadline::After(0.05);
  const auto start = std::chrono::steady_clock::now();
  Result<QueryResult> outcome = engine->Solve(2, query);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!outcome.ok()) {
    EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
    // Generous bound: preemption is per-node, so overshoot is bounded by
    // one frontier round, not the whole solve.
    EXPECT_LT(elapsed, 10.0);
  }
  // (If the machine solved it inside the deadline, that is also correct.)
}

TEST(EngineEvaluateTest, ExactIn2dMatchesEvalModule) {
  const data::Dataset ds = data::GenerateUniform(150, 2, 19);
  auto engine = MakeEngine(ds);
  Result<QueryResult> solved = engine->Solve(4);
  ASSERT_TRUE(solved.ok());
  Result<EvalReport> report = engine->Evaluate(solved->representative, 4);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->exact);
  Result<int64_t> direct = SweepExactRankRegret2D(ds, solved->representative);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(report->rank_regret, *direct);
  EXPECT_EQ(report->within_k, report->rank_regret <= 4);
  // 2DRRR promises 2k.
  EXPECT_LE(report->rank_regret, 8);
}

TEST(EngineEvaluateTest, SampledAboveTwoDims) {
  const data::Dataset ds = data::GenerateUniform(200, 3, 20);
  EngineOptions options;
  options.eval_num_functions = 500;
  auto engine = MakeEngine(ds, options);
  Result<QueryResult> solved = engine->Solve(6);
  ASSERT_TRUE(solved.ok());
  Result<EvalReport> report = engine->Evaluate(solved->representative, 6);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->exact);
  EXPECT_EQ(report->diagnostics.eval_functions_sampled, 500u);
  EXPECT_GE(report->rank_regret, 1);
  EXPECT_EQ(engine->Evaluate(solved->representative, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineDiagnosticsTest, ToStringNamesTheMachineryUsed) {
  const data::Dataset ds = data::GenerateUniform(300, 3, 21);
  auto engine = MakeEngine(ds);
  Result<QueryResult> mdrc = engine->Solve(6);
  ASSERT_TRUE(mdrc.ok());
  const std::string text = mdrc->diagnostics.ToString();
  EXPECT_NE(text.find("MDRC"), std::string::npos);
  EXPECT_NE(text.find("mdrc{"), std::string::npos);

  QueryOptions query;
  query.algorithm = Algorithm::kMdRrr;
  Result<QueryResult> mdrrr = engine->Solve(6, query);
  ASSERT_TRUE(mdrrr.ok());
  EXPECT_NE(mdrrr->diagnostics.ToString().find("sampler{"),
            std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace rrr
