#ifndef RRR_CORE_ENGINE_H_
#define RRR_CORE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/version.h"
#include "core/prepared_dataset.h"
#include "core/solver.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

/// \brief Unified observability block returned by every engine query,
/// replacing the scattered per-algorithm counters (MdrcStats out-param,
/// sampler counts, ad-hoc timing fields).
///
/// Counters for machinery a query did not touch stay zero: a 2DRRR query
/// reports empty mdrc/sampler sections, an MDRC query reports no sampler
/// draws, and so on.
struct Diagnostics {
  /// The algorithm that actually ran (kAuto resolved).
  Algorithm algorithm_used = Algorithm::kAuto;
  /// Wall-clock seconds of this query (memo lookup time on cache hits).
  double seconds = 0.0;
  /// True when the representative came from the engine's per-(k,
  /// algorithm) result memo; the remaining counters then describe the
  /// original computing run.
  bool result_from_cache = false;
  /// True when a prepared-dataset shared artifact satisfied part of the
  /// work (K-SETr sample reused, warm MDRC corner hits, memoized maxima).
  bool reused_prepared_artifacts = false;
  /// MDRC partition counters (all zero unless MDRC ran). With the engine's
  /// shared corner cache, cache_hits includes corners computed by earlier
  /// queries — the cross-query reuse signal.
  MdrcStats mdrc;
  /// K-SETr counters (zero unless the sampler ran).
  size_t sampler_samples_drawn = 0;
  size_t sampler_ksets = 0;
  /// True when the sample came from the prepared dataset's (k, seed) memo.
  bool sampler_from_cache = false;
  /// Ranking functions drawn by Evaluate's sampled estimator (0 for the
  /// exact 2D path and for Solve/SolveDual queries).
  size_t eval_functions_sampled = 0;
  /// Band rows the query's top-k probes actually scanned: the shared
  /// candidate index it was served, which covers the k-skyband and holds
  /// at most twice its rows (PreparedDataset::SharedCandidateIndex). 0 when
  /// the index declined to build or the path has no top-k probes — results
  /// are bit-identical either way.
  size_t skyband_size = 0;
  /// Estimated dataset rows the k-skyband pruning kept out of top-k scans:
  /// pruned probes x (n - skyband_size). A throughput observability signal
  /// like `seconds`, not part of the deterministic-output contract.
  size_t skyband_scan_rows_saved = 0;
  /// Blocks the query's threshold-driven scans scored / proved skippable
  /// via block-max pruning (topk::ScanStats). Deltas of process-global
  /// counters taken around the query's compute, so concurrent queries
  /// attribute approximately; zero on memo hits. Observability only —
  /// skipping is bit-identity-safe by construction.
  uint64_t blocks_scanned = 0;
  uint64_t blocks_skipped = 0;
  /// True when the candidate-index build failed — or was in its failure
  /// cooldown — and the query proceeded on the unpruned full-mirror scan
  /// instead of erroring. The representative is bit-identical to the
  /// index-assisted one (the null contract that path already honors); only
  /// throughput degrades. Preemption
  /// (Cancelled/DeadlineExceeded) is never degraded — it propagates.
  bool degraded = false;
  /// The dataset version this query answered against (the pinned snapshot,
  /// or the current version at query start for a dynamic engine). Every
  /// reuse flag above is scoped to this version: a memo or artifact hit
  /// can only come from work done on the same version's data.
  DatasetVersion dataset_version;

  /// One-line human-readable rendering, e.g.
  /// "MDRC 0.123s cached=no mdrc{nodes=93 leaves=47 ...}".
  std::string ToString() const;
};

/// Output of RrrEngine::Solve.
struct QueryResult {
  /// Ids of the representative tuples, sorted.
  std::vector<int32_t> representative;
  Diagnostics diagnostics;
};

/// Output of RrrEngine::Evaluate.
struct EvalReport {
  /// Measured rank-regret of the representative: exact for d == 2 (one
  /// angular sweep), a Monte-Carlo lower bound otherwise.
  int64_t rank_regret = 0;
  /// True when rank_regret is exact (the 2D sweep), false for the sampled
  /// estimate (the true max can only be larger).
  bool exact = false;
  /// rank_regret <= k: the representative meets the rank promise on every
  /// function checked.
  bool within_k = false;
  Diagnostics diagnostics;
};

/// Per-query options for RrrEngine calls.
struct QueryOptions {
  /// Algorithm override for this query; kAuto (the default) defers to the
  /// engine's configured default, which itself resolves by dimension/k.
  Algorithm algorithm = Algorithm::kAuto;
  /// Cancellation token, deadline, and worker-thread budget for this
  /// query. `exec.threads` (non-zero) overrides every thread setting the
  /// engine was configured with.
  ExecContext exec;
  /// Consult and populate the engine's per-(version, k, algorithm) result
  /// memo — the only memo switch. Off forces a full recompute (still
  /// reusing prepared artifacts). The memo is sound because every solver is
  /// deterministic given its options (fixed at engine construction) and
  /// the version names the exact row-state; it holds at most 1024 results,
  /// past which queries compute without caching.
  bool use_cache = true;
  /// Pin this query to a specific dataset snapshot instead of the engine's
  /// current one — the consistent-read primitive of the dynamic layer: a
  /// caller holding a snapshot from DynamicDataset::Snapshot() can keep
  /// querying that immutable version while writers publish newer ones
  /// (old-snapshot queries still hit their own memos). Null (the default)
  /// resolves to the engine's current version. The snapshot must come from
  /// the same lineage the engine serves; SolveDual pins all its probes to
  /// one snapshot internally either way.
  std::shared_ptr<const PreparedDataset> snapshot;
};

/// Engine-wide configuration.
struct EngineOptions {
  /// Per-algorithm tuning and the default algorithm selector for every
  /// query (the `k` field is ignored — k is a per-query argument; the
  /// `threads` field is the engine-wide default budget, overridable per
  /// query via QueryOptions::exec.threads).
  RrrOptions defaults;
  /// Evaluate's sampled-estimator protocol for d > 2 data.
  size_t eval_num_functions = 10000;
  uint64_t eval_seed = 23;
  /// After a candidate-index build failure, queries skip re-attempting
  /// the build for this long (running degraded instead) so a persistently
  /// failing build is not hammered on every query. 0 retries
  /// immediately.
  uint64_t artifact_failure_cooldown_ms = 250;
};

/// \brief Prepare-once / query-many facade over the paper's algorithms.
///
/// Build an engine per dataset, then issue queries from any thread:
///
///   auto engine = *RrrEngine::Create(std::move(dataset));
///   auto r1 = engine->Solve(10);              // cold: runs the solver
///   auto r2 = engine->Solve(10);              // memo hit: bit-identical
///   auto d  = engine->SolveDual(25);          // probes share artifacts
///   auto ok = engine->Evaluate(r1->representative, 10);
///
/// Guarantees:
///  - *Concurrency*: Solve/SolveDual/Evaluate are const and safe to call
///    from many threads; shared artifacts are compute-once (a thread
///    requesting an in-flight artifact waits instead of duplicating work).
///  - *Determinism*: results are identical across repeat calls, thread
///    counts, and cache states (the memo can only return what the solver
///    would recompute).
///  - *Preemption*: a query whose QueryOptions::exec cancels or expires
///    returns Status Cancelled/DeadlineExceeded with no partial output and
///    without poisoning any shared cache.
///
/// The legacy free functions (FindRankRegretRepresentative,
/// SolveDualProblem) are thin wrappers constructing a temporary engine.
class RrrEngine {
 public:
  /// Supplier of the current dataset snapshot for a dynamic engine
  /// (typically DynamicDataset::Snapshot bound by NewDynamicEngine in
  /// core/dataset_updates.h). Must be thread-safe and never return null.
  using SnapshotFn =
      std::function<std::shared_ptr<const PreparedDataset>()>;

  /// Validates and prepares `dataset` under the default candidate-index
  /// policy (see PreparedDataset::Create); to set the policy, prepare the
  /// dataset first and wrap it with the overload below.
  static Result<std::shared_ptr<RrrEngine>> Create(
      data::Dataset dataset, EngineOptions options = {});

  /// Wraps an existing prepared dataset (shareable across engines with
  /// different option sets).
  static Result<std::shared_ptr<RrrEngine>> Create(
      std::shared_ptr<const PreparedDataset> prepared,
      EngineOptions options = {});

  /// \brief Dynamic engine: every query resolves `source` ONCE at entry
  /// and answers consistently against that immutable snapshot, so updates
  /// published mid-query never tear a result (SolveDual's probes all see
  /// the snapshot of its first call). The result memo is keyed by dataset
  /// version: publishing a new version invalidates nothing and poisons
  /// nothing — new-version queries miss (recompute against the new data),
  /// pinned old-snapshot queries still hit their own entries.
  static Result<std::shared_ptr<RrrEngine>> CreateDynamic(
      SnapshotFn source, EngineOptions options = {});

  /// The snapshot the engine was created over; for a dynamic engine this
  /// is the version current at creation, not necessarily the one queries
  /// resolve now.
  const PreparedDataset& prepared() const { return *prepared_; }
  const EngineOptions& options() const { return options_; }

  /// \brief Rank-regret representative for rank budget `k`.
  ///
  /// Fails with InvalidArgument for k == 0 or an algorithm/dimension
  /// mismatch; propagates solver statuses (ResourceExhausted, Cancelled,
  /// DeadlineExceeded) otherwise.
  Result<QueryResult> Solve(size_t k, const QueryOptions& query = {}) const;

  /// \brief Dual problem: smallest k whose representative fits `max_size`,
  /// by binary search over memoizing Solve probes (Section 2's reduction).
  ///
  /// Error contract matches SolveDualProblem (InvalidArgument, NotFound,
  /// all-probes ResourceExhausted), plus Cancelled/DeadlineExceeded from
  /// the query's ExecContext.
  Result<DualResult> SolveDual(size_t max_size,
                               const QueryOptions& query = {}) const;

  /// \brief Audits a representative: exact 2D rank-regret (shared sweep)
  /// or the sampled lower bound for d > 2, with within-k verdict.
  ///
  /// Fails with InvalidArgument for k == 0 or an empty representative,
  /// OutOfRange for ids outside the dataset.
  Result<EvalReport> Evaluate(const std::vector<int32_t>& representative,
                              size_t k, const QueryOptions& query = {}) const;

  /// Approximate heap footprint of the per-(version, k, algorithm) result
  /// memo in bytes — the engine's slice of the service layer's memory
  /// budget. An estimate, not an allocation census.
  size_t ApproxMemoBytes() const;

  /// Drops every memoized result (evictable-cell protocol); the next query
  /// per key recomputes, bit-identically by the determinism guarantee.
  /// Returns the approximate bytes freed. Shared prepared-dataset
  /// artifacts are not touched — evict those via the PreparedDataset.
  size_t EvictMemos() const;

 private:
  /// Memo key: the dataset version is part of the identity, so an entry
  /// computed against one row-state can never answer for another — the
  /// precise invalidation the dynamic layer relies on (and a no-op for
  /// static engines, whose version is constant).
  struct ResultKey {
    DatasetVersion version;
    size_t k;
    Algorithm algorithm;
    bool operator==(const ResultKey& other) const {
      return version == other.version && k == other.k &&
             algorithm == other.algorithm;
    }
  };
  struct ResultKeyHash {
    size_t operator()(const ResultKey& key) const;
  };

  RrrEngine(std::shared_ptr<const PreparedDataset> prepared,
            SnapshotFn source, EngineOptions options);

  /// The snapshot this query answers against: its pin, else the dynamic
  /// source's current version, else the static prepared dataset. Called
  /// exactly once per query so one query never mixes versions.
  std::shared_ptr<const PreparedDataset> ResolveSnapshot(
      const QueryOptions& query) const;

  /// Applies the query override, the engine default, and the kAuto
  /// dimension/k rules; validates algorithm/dimension compatibility.
  Result<Algorithm> ResolveAlgorithm(const PreparedDataset& prepared, size_t k,
                                     const QueryOptions& query) const;

  /// Dispatches one uncached solve (shared artifacts still apply).
  Result<QueryResult> RunAlgorithm(const PreparedDataset& prepared, size_t k,
                                   Algorithm algorithm,
                                   const ExecContext& ctx) const;

  /// True while the candidate index is inside its post-failure cooldown
  /// window (queries then skip the build attempt entirely and run
  /// degraded).
  bool CandidatesInCooldown() const;

  /// \brief SharedCandidateIndex with graceful degradation.
  ///
  /// The index is the one shared artifact queries can survive without: it
  /// already declines on purpose (a null index means the unpruned mirror
  /// scan runs, bit-identically), so a build failure other than preemption
  /// logs a warning, opens the cooldown, sets *degraded, and returns null.
  /// Cancelled/DeadlineExceeded propagate — preemption is the query's own
  /// verdict, not an artifact fault. The algorithm-defining artifacts
  /// (k-sets, convex maxima) have no such fallback and keep their failures
  /// fatal.
  Result<std::shared_ptr<const CandidateIndex>> DegradableCandidateIndex(
      const PreparedDataset& prepared, size_t k, const ExecContext& ctx,
      bool* degraded) const;

  std::shared_ptr<const PreparedDataset> prepared_;
  SnapshotFn snapshot_source_;  // null for static engines
  EngineOptions options_;
  mutable Mutex degrade_mu_;
  /// End of the candidate-index cooldown window.
  mutable std::chrono::steady_clock::time_point candidates_retry_after_
      RRR_GUARDED_BY(degrade_mu_){};
  mutable internal::KeyedLazyCache<ResultKey, QueryResult, ResultKeyHash>
      result_cache_;
};

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_ENGINE_H_
