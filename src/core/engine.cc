#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace core {

namespace {

/// Cap on memoized results; past it, queries compute without caching.
constexpr size_t kMaxResultCacheEntries = 1024;

}  // namespace

std::string Diagnostics::ToString() const {
  std::string out = StrFormat("%s %.6fs cached=%s reuse=%s",
                              AlgorithmName(algorithm_used).c_str(), seconds,
                              result_from_cache ? "yes" : "no",
                              reused_prepared_artifacts ? "yes" : "no");
  if (mdrc.nodes > 0) {
    out += StrFormat(
        " mdrc{nodes=%zu leaves=%zu evals=%zu hits=%zu depth=%zu}",
        mdrc.nodes, mdrc.leaves, mdrc.corner_evals, mdrc.cache_hits,
        mdrc.max_depth);
  }
  if (sampler_samples_drawn > 0 || sampler_ksets > 0) {
    out += StrFormat(" sampler{draws=%zu ksets=%zu cached=%s}",
                     sampler_samples_drawn, sampler_ksets,
                     sampler_from_cache ? "yes" : "no");
  }
  if (eval_functions_sampled > 0) {
    out += StrFormat(" eval{functions=%zu}", eval_functions_sampled);
  }
  if (skyband_size > 0) {
    out += StrFormat(" skyband{size=%zu rows_saved=%zu}", skyband_size,
                     skyband_scan_rows_saved);
  }
  if (blocks_scanned > 0 || blocks_skipped > 0) {
    out += StrFormat(" blockskip{scanned=%llu skipped=%llu}",
                     static_cast<unsigned long long>(blocks_scanned),
                     static_cast<unsigned long long>(blocks_skipped));
  }
  if (degraded) out += " degraded";
  if (dataset_version.assigned()) out += " " + dataset_version.ToString();
  return out;
}

size_t RrrEngine::ResultKeyHash::operator()(const ResultKey& key) const {
  uint64_t h = FnvMix(kFnvOffsetBasis, key.version.origin);
  h = FnvMix(h, key.version.ordinal);
  h = FnvMix(h, key.k);
  h = FnvMix(h, static_cast<uint64_t>(key.algorithm));
  return static_cast<size_t>(h);
}

RrrEngine::RrrEngine(std::shared_ptr<const PreparedDataset> prepared,
                     SnapshotFn source, EngineOptions options)
    : prepared_(std::move(prepared)),
      snapshot_source_(std::move(source)),
      options_(std::move(options)),
      result_cache_(kMaxResultCacheEntries) {}

Result<std::shared_ptr<RrrEngine>> RrrEngine::Create(data::Dataset dataset,
                                                     EngineOptions options) {
  std::shared_ptr<const PreparedDataset> prepared;
  RRR_ASSIGN_OR_RETURN(
      prepared, PreparedDataset::Create(std::move(dataset)));
  return Create(std::move(prepared), std::move(options));
}

Result<std::shared_ptr<RrrEngine>> RrrEngine::Create(
    std::shared_ptr<const PreparedDataset> prepared, EngineOptions options) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("null PreparedDataset");
  }
  // Not make_shared: the constructor is private.
  return std::shared_ptr<RrrEngine>(
      new RrrEngine(std::move(prepared), nullptr, std::move(options)));
}

Result<std::shared_ptr<RrrEngine>> RrrEngine::CreateDynamic(
    SnapshotFn source, EngineOptions options) {
  if (source == nullptr) {
    return Status::InvalidArgument("null snapshot source");
  }
  std::shared_ptr<const PreparedDataset> initial = source();
  if (initial == nullptr) {
    return Status::InvalidArgument("snapshot source returned null");
  }
  return std::shared_ptr<RrrEngine>(new RrrEngine(
      std::move(initial), std::move(source), std::move(options)));
}

std::shared_ptr<const PreparedDataset> RrrEngine::ResolveSnapshot(
    const QueryOptions& query) const {
  if (query.snapshot != nullptr) return query.snapshot;
  if (snapshot_source_ != nullptr) {
    std::shared_ptr<const PreparedDataset> current = snapshot_source_();
    if (current != nullptr) return current;
  }
  return prepared_;
}

Result<Algorithm> RrrEngine::ResolveAlgorithm(const PreparedDataset& prepared,
                                              size_t k,
                                              const QueryOptions& query) const {
  Algorithm algorithm = query.algorithm != Algorithm::kAuto
                            ? query.algorithm
                            : options_.defaults.algorithm;
  if (algorithm == Algorithm::kAuto) {
    if (prepared.dims() == 2) {
      algorithm = Algorithm::k2dRrr;
    } else if (k == 1 && prepared.dims() > 2) {
      algorithm = Algorithm::kConvexMaxima;
    } else {
      algorithm = Algorithm::kMdRc;
    }
  }
  if (algorithm == Algorithm::k2dRrr && prepared.dims() != 2) {
    return Status::InvalidArgument("2DRRR requires a 2D dataset");
  }
  if (algorithm == Algorithm::kConvexMaxima && k != 1) {
    return Status::InvalidArgument(
        "convex maxima solve is exact only for k == 1");
  }
  return algorithm;
}

bool RrrEngine::CandidatesInCooldown() const {
  if (options_.artifact_failure_cooldown_ms == 0) return false;
  MutexLock lock(degrade_mu_);
  return std::chrono::steady_clock::now() < candidates_retry_after_;
}

Result<std::shared_ptr<const CandidateIndex>>
RrrEngine::DegradableCandidateIndex(const PreparedDataset& prepared, size_t k,
                                    const ExecContext& ctx,
                                    bool* degraded) const {
  if (CandidatesInCooldown()) {
    *degraded = true;
    return std::shared_ptr<const CandidateIndex>();
  }
  Result<std::shared_ptr<const CandidateIndex>> built =
      prepared.SharedCandidateIndex(
          k, ResolveThreads(ctx.ThreadsOver(options_.defaults.threads)), ctx);
  if (built.ok()) return built;
  const StatusCode code = built.status().code();
  if (code == StatusCode::kCancelled ||
      code == StatusCode::kDeadlineExceeded) {
    return built;
  }
  RRR_LOG(WARNING) << "candidate-index build failed ("
                   << built.status().ToString()
                   << "); query degrades to the unpruned path";
  {
    MutexLock lock(degrade_mu_);
    candidates_retry_after_ =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.artifact_failure_cooldown_ms);
  }
  *degraded = true;
  return std::shared_ptr<const CandidateIndex>();
}

Result<QueryResult> RrrEngine::RunAlgorithm(const PreparedDataset& prepared,
                                            size_t k, Algorithm algorithm,
                                            const ExecContext& ctx) const {
  const RrrOptions& defaults = options_.defaults;
  const data::Dataset& dataset = prepared.dataset();
  const data::ColumnBlocks* blocks = &prepared.column_blocks();
  const size_t n = dataset.size();

  QueryResult result;
  result.diagnostics.algorithm_used = algorithm;
  result.diagnostics.dataset_version = prepared.version();

  // Every top-k-driven path asks for the shared k-skyband index up front; a
  // null result (declined or failed build) just means the path runs
  // unpruned — see DegradableCandidateIndex for the failure contract. The
  // convex-maxima path has its own skyline prefilter and skips the ask.
  auto shared_candidates =
      [&]() -> Result<std::shared_ptr<const CandidateIndex>> {
    return DegradableCandidateIndex(prepared, k, ctx,
                                    &result.diagnostics.degraded);
  };
  Stopwatch timer;
  // Block-max pruning accounting: delta of the process-global scan
  // counters around the compute. Concurrent queries interleave their
  // blocks into each other's deltas — approximate per query, exact in sum
  // (the service's STATS totals), zero on memo hits.
  const topk::ScanStats scan_before = topk::ScanCountersSnapshot();
  switch (algorithm) {
    case Algorithm::k2dRrr: {
      std::shared_ptr<const CandidateIndex> candidates;
      RRR_ASSIGN_OR_RETURN(candidates, shared_candidates());
      // With an index FindRanges sweeps the index's band; otherwise the
      // prepared full-data sweep (built on first use) replaces the per-call
      // O(n log n) initial sort.
      RRR_ASSIGN_OR_RETURN(
          result.representative,
          Solve2dRrr(dataset, k, defaults.rrr2d, ctx,
                     candidates == nullptr ? prepared.sweep() : nullptr,
                     candidates.get(), blocks));
      result.diagnostics.reused_prepared_artifacts = prepared.dims() == 2;
      if (candidates != nullptr) {
        result.diagnostics.skyband_size = candidates->band_size();
      }
      break;
    }
    case Algorithm::kMdRrr: {
      std::shared_ptr<const CandidateIndex> candidates;
      RRR_ASSIGN_OR_RETURN(candidates, shared_candidates());
      KSetSamplerOptions sampler = defaults.sampler;
      if (defaults.threads != 0) sampler.threads = defaults.threads;
      bool sample_hit = false;
      std::shared_ptr<const KSetSampleResult> sample;
      RRR_ASSIGN_OR_RETURN(
          sample, prepared.SharedKSets(k, sampler, ctx, &sample_hit,
                                       candidates.get()));
      RRR_ASSIGN_OR_RETURN(
          result.representative,
          SolveMdrrr(dataset, sample->ksets, defaults.mdrrr, ctx));
      result.diagnostics.sampler_samples_drawn = sample->samples_drawn;
      result.diagnostics.sampler_ksets = sample->ksets.size();
      result.diagnostics.sampler_from_cache = sample_hit;
      result.diagnostics.reused_prepared_artifacts = sample_hit;
      if (candidates != nullptr) {
        result.diagnostics.skyband_size = candidates->band_size();
        if (!sample_hit) {
          result.diagnostics.skyband_scan_rows_saved =
              sample->samples_drawn * (n - candidates->band_size());
        }
      }
      break;
    }
    case Algorithm::kMdRc: {
      std::shared_ptr<const CandidateIndex> candidates;
      RRR_ASSIGN_OR_RETURN(candidates, shared_candidates());
      MdrcOptions mdrc = defaults.mdrc;
      if (defaults.threads != 0) mdrc.threads = defaults.threads;
      // Cross-query warmth, not intra-solve sibling hits: sibling cells
      // share corners within any single solve, so stats.cache_hits > 0
      // even on a cold engine. Corners stored before this query started
      // are the actual prepared-artifact signal.
      const bool cache_was_warm = prepared.corner_cache()->entries() > 0;
      MdrcStats stats;
      RRR_ASSIGN_OR_RETURN(
          result.representative,
          SolveMdrc(dataset, k, mdrc, &stats, ctx, prepared.corner_cache(),
                    candidates.get(), blocks));
      result.diagnostics.mdrc = stats;
      result.diagnostics.reused_prepared_artifacts = cache_was_warm;
      if (candidates != nullptr) {
        result.diagnostics.skyband_size = candidates->band_size();
        result.diagnostics.skyband_scan_rows_saved =
            stats.corner_evals * (n - candidates->band_size());
      }
      break;
    }
    case Algorithm::kConvexMaxima: {
      const size_t threads =
          ResolveThreads(ctx.ThreadsOver(defaults.threads));
      bool maxima_hit = false;
      std::shared_ptr<const std::vector<int32_t>> maxima;
      RRR_ASSIGN_OR_RETURN(
          maxima, prepared.SharedConvexMaxima(threads, ctx, &maxima_hit));
      result.representative = *maxima;
      result.diagnostics.reused_prepared_artifacts = maxima_hit;
      break;
    }
    case Algorithm::kAuto:
      return Status::Internal("kAuto must be resolved before dispatch");
  }
  const topk::ScanStats scan_after = topk::ScanCountersSnapshot();
  result.diagnostics.blocks_scanned =
      scan_after.blocks_scanned - scan_before.blocks_scanned;
  result.diagnostics.blocks_skipped =
      scan_after.blocks_skipped - scan_before.blocks_skipped;
  result.diagnostics.seconds = timer.ElapsedSeconds();
  return result;
}

Result<QueryResult> RrrEngine::Solve(size_t k,
                                     const QueryOptions& query) const {
  RRR_RETURN_IF_ERROR(query.exec.CheckPreempted());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  // One resolution per query: everything below — algorithm choice, memo
  // key, solver input — sees this one immutable version even if a writer
  // publishes a newer one mid-query.
  const std::shared_ptr<const PreparedDataset> snapshot =
      ResolveSnapshot(query);
  Algorithm algorithm;
  RRR_ASSIGN_OR_RETURN(algorithm, ResolveAlgorithm(*snapshot, k, query));

  if (!query.use_cache) {
    return RunAlgorithm(*snapshot, k, algorithm, query.exec);
  }

  Stopwatch timer;
  bool memo_hit = false;
  std::shared_ptr<const QueryResult> cached;
  RRR_ASSIGN_OR_RETURN(
      cached,
      result_cache_.GetOrCompute(
          ResultKey{snapshot->version(), k, algorithm}, query.exec, &memo_hit,
          [&] { return RunAlgorithm(*snapshot, k, algorithm, query.exec); }));
  QueryResult result = *cached;  // cached entries are immutable; copy out
  if (memo_hit) {
    // The counters describe the original computing run; re-stamp the
    // query-local facts.
    result.diagnostics.result_from_cache = true;
    result.diagnostics.reused_prepared_artifacts = true;
    result.diagnostics.seconds = timer.ElapsedSeconds();
  }
  return result;
}

Result<DualResult> RrrEngine::SolveDual(size_t max_size,
                                        const QueryOptions& query) const {
  RRR_RETURN_IF_ERROR(query.exec.CheckPreempted());
  if (max_size == 0) return Status::InvalidArgument("max_size must be >= 1");

  // Pin every probe to one snapshot resolved NOW: a version swap between
  // probes would otherwise binary-search over answers from different
  // datasets — the classic torn read.
  QueryOptions pinned = query;
  pinned.snapshot = ResolveSnapshot(query);

  // Binary search the smallest feasible k in [1, n] (Section 2's reduction:
  // log n calls to the primal solver). Every probe goes through Solve, so
  // probes share the prepared artifacts and land in the result memo.
  size_t lo = 1;
  size_t hi = pinned.snapshot->size();
  DualResult best;
  bool found = false;
  size_t exhausted_probes = 0;
  Stopwatch total_timer;
  while (lo <= hi) {
    RRR_RETURN_IF_ERROR(query.exec.CheckPreempted());
    const size_t mid = lo + (hi - lo) / 2;
    Result<QueryResult> probe = Solve(mid, pinned);
    DualProbe record;
    record.k = mid;
    if (!probe.ok() &&
        probe.status().code() == StatusCode::kResourceExhausted) {
      // The solver could not finish at this k (e.g. MDRC's node budget for
      // tiny k in high dimension): treat as infeasible and search upward.
      record.status = StatusCode::kResourceExhausted;
      best.probes.push_back(record);
      ++exhausted_probes;
      lo = mid + 1;
      continue;
    }
    if (!probe.ok()) return probe.status();
    QueryResult res = std::move(probe).value();
    record.algorithm_used = res.diagnostics.algorithm_used;
    record.seconds = res.diagnostics.seconds;
    record.representative_size = res.representative.size();
    record.from_cache = res.diagnostics.result_from_cache;
    record.feasible = res.representative.size() <= max_size;
    best.degraded |= res.diagnostics.degraded;
    if (!record.from_cache) {
      best.blocks_scanned += res.diagnostics.blocks_scanned;
      best.blocks_skipped += res.diagnostics.blocks_skipped;
    }
    best.probes.push_back(record);
    if (record.feasible) {
      best.k = mid;
      best.representative = std::move(res.representative);
      best.algorithm_used = res.diagnostics.algorithm_used;
      found = true;
      if (mid == 1) break;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  best.seconds = total_timer.ElapsedSeconds();
  if (!found) {
    if (!best.probes.empty() && exhausted_probes == best.probes.size()) {
      // Every probe died on the solver's own resource budget, so "no k met
      // the size budget" would misattribute the failure: the search never
      // saw a representative at all. Surface the real cause so callers can
      // raise the algorithm budget instead of the size budget.
      return Status::ResourceExhausted(
          "every probe of the dual binary search exhausted the solver's "
          "budget before producing a representative (raise the algorithm's "
          "resource limits, e.g. MdrcOptions::max_nodes)");
    }
    return Status::NotFound(
        "no k in [1, n] met the size budget with this algorithm");
  }
  return best;
}

Result<EvalReport> RrrEngine::Evaluate(
    const std::vector<int32_t>& representative, size_t k,
    const QueryOptions& query) const {
  RRR_RETURN_IF_ERROR(query.exec.CheckPreempted());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  // Resolved once, like Solve: the audit must measure the representative
  // against one consistent version.
  const std::shared_ptr<const PreparedDataset> snapshot =
      ResolveSnapshot(query);

  EvalReport report;
  report.diagnostics.dataset_version = snapshot->version();
  Stopwatch timer;
  const topk::ScanStats scan_before = topk::ScanCountersSnapshot();
  if (snapshot->dims() == 2) {
    RRR_ASSIGN_OR_RETURN(
        report.rank_regret,
        SweepExactRankRegret2D(snapshot->dataset(), representative,
                               query.exec, snapshot->sweep()));
    report.exact = true;
    report.diagnostics.reused_prepared_artifacts = true;
  } else {
    std::shared_ptr<const CandidateIndex> candidates;
    RRR_ASSIGN_OR_RETURN(
        candidates,
        DegradableCandidateIndex(*snapshot, k, query.exec,
                                 &report.diagnostics.degraded));
    SampledRegretOptions sampled;
    sampled.num_functions = options_.eval_num_functions;
    sampled.seed = options_.eval_seed;
    sampled.threads = options_.defaults.threads;
    SampledRegretStats eval_stats;
    RRR_ASSIGN_OR_RETURN(
        report.rank_regret,
        SampledRankRegretEstimate(snapshot->dataset(), representative,
                                  sampled, query.exec, candidates.get(),
                                  &eval_stats, &snapshot->column_blocks()));
    report.exact = false;
    report.diagnostics.eval_functions_sampled = sampled.num_functions;
    if (candidates != nullptr) {
      report.diagnostics.skyband_size = candidates->band_size();
      report.diagnostics.skyband_scan_rows_saved =
          eval_stats.skyband_scans *
          (snapshot->size() - candidates->band_size());
    }
  }
  const topk::ScanStats scan_after = topk::ScanCountersSnapshot();
  report.diagnostics.blocks_scanned =
      scan_after.blocks_scanned - scan_before.blocks_scanned;
  report.diagnostics.blocks_skipped =
      scan_after.blocks_skipped - scan_before.blocks_skipped;
  report.within_k = report.rank_regret <= static_cast<int64_t>(k);
  report.diagnostics.seconds = timer.ElapsedSeconds();
  return report;
}

size_t RrrEngine::ApproxMemoBytes() const {
  size_t bytes = 0;
  result_cache_.ForEachReady(
      [&bytes](const ResultKey&, const QueryResult& result) {
        bytes += sizeof(ResultKey) + sizeof(QueryResult) +
                 result.representative.capacity() * sizeof(int32_t);
      });
  return bytes;
}

size_t RrrEngine::EvictMemos() const {
  const size_t freed = ApproxMemoBytes();
  result_cache_.Clear();
  return freed;
}

}  // namespace core
}  // namespace rrr
