#ifndef RRR_CORE_PREPARED_DATASET_H_
#define RRR_CORE_PREPARED_DATASET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/version.h"
#include "core/candidate_index.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/sweep.h"
#include "data/column_blocks.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

namespace internal {

/// \brief One compute-once slot with in-flight waiting and failure retry.
///
/// Concurrent GetOrCompute callers block (in 10 ms polls, honoring their
/// own ExecContext) while one thread computes; a failed compute clears the
/// slot so a later call retries. That retry matters for preemption: a
/// Cancelled/DeadlineExceeded compute is the *caller's* failure, and must
/// not poison the cache for callers with laxer budgets.
template <typename V>
class LazyCell {
 public:
  /// The value if already computed, else null — never triggers or waits
  /// for a compute (the size-accounting walk peeks).
  std::shared_ptr<const V> Peek() const {
    MutexLock lock(mu_);
    return state_ == State::kReady ? value_ : nullptr;
  }

  /// \brief Evictable-cell protocol: drops a ready value so the next
  /// GetOrCompute recomputes it. Returns true iff a value was dropped.
  ///
  /// Safe against in-flight readers — they hold the value by shared_ptr,
  /// so eviction only severs the cell's reference; the artifact stays
  /// alive until the last query using it finishes. A kComputing cell is
  /// left alone (the computing caller will publish into it normally); an
  /// idle cell has nothing to drop. Deterministic compute makes the
  /// recompute bit-identical to the evicted value.
  bool Evict() {
    MutexLock lock(mu_);
    if (state_ != State::kReady) return false;
    value_.reset();
    state_ = State::kIdle;
    return true;
  }

  /// `compute` is a callable returning Result<V>, invoked at most once
  /// concurrently. On success every caller shares one immutable value;
  /// `cache_hit` (may be null) reports whether this call found it ready.
  template <typename Fn>
  Result<std::shared_ptr<const V>> GetOrCompute(const ExecContext& ctx,
                                                bool* cache_hit,
                                                Fn&& compute) {
    // Explicitly balanced lock/unlock rather than RAII: the capability
    // must be dropped across the compute() call, which a scoped lock
    // cannot express to the analysis.
    mu_.lock();
    for (;;) {
      if (state_ == State::kReady) {
        std::shared_ptr<const V> value = value_;
        mu_.unlock();
        if (cache_hit != nullptr) *cache_hit = true;
        return value;
      }
      if (state_ == State::kIdle) break;
      // Someone else is computing: wait for them, but keep honoring our
      // own cancellation/deadline (they may be laxer than ours).
      cv_.WaitFor(mu_, std::chrono::milliseconds(10));
      const Status preempted = ctx.CheckPreempted();
      if (!preempted.ok()) {
        mu_.unlock();
        return preempted;
      }
    }
    state_ = State::kComputing;
    mu_.unlock();
    // The failpoint models compute() dying mid-build; it must sit inside
    // the computing window so the failure path below restores kIdle and
    // wakes waiters (an early return here would leave them polling a slot
    // nobody owns).
    Result<V> computed = [&]() -> Result<V> {
      RRR_FAILPOINT("core.lazycell.compute");
      return compute();
    }();
    mu_.lock();
    if (!computed.ok()) {
      state_ = State::kIdle;  // let a later (or concurrent) caller retry
      cv_.NotifyAll();
      mu_.unlock();
      return computed.status();
    }
    std::shared_ptr<const V> value =
        std::make_shared<const V>(std::move(computed).value());
    value_ = value;
    state_ = State::kReady;
    cv_.NotifyAll();
    mu_.unlock();
    if (cache_hit != nullptr) *cache_hit = false;
    return value;
  }

 private:
  enum class State { kIdle, kComputing, kReady };
  mutable Mutex mu_;
  CondVar cv_;
  State state_ RRR_GUARDED_BY(mu_) = State::kIdle;
  std::shared_ptr<const V> value_ RRR_GUARDED_BY(mu_);
};

/// \brief Keyed collection of LazyCells with an entry cap: past the cap,
/// new keys compute without being cached (bounded memory, never wrong).
template <typename K, typename V, typename Hash = std::hash<K>>
class KeyedLazyCache {
 public:
  explicit KeyedLazyCache(size_t max_entries) : max_entries_(max_entries) {}

  template <typename Fn>
  Result<std::shared_ptr<const V>> GetOrCompute(const K& key,
                                                const ExecContext& ctx,
                                                bool* cache_hit,
                                                Fn&& compute) {
    std::shared_ptr<LazyCell<V>> cell;
    {
      MutexLock lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        cell = it->second;
      } else if (map_.size() < max_entries_) {
        cell = std::make_shared<LazyCell<V>>();
        map_.emplace(key, cell);
      }
    }
    if (cell == nullptr) {  // cache at capacity: compute uncached
      Result<V> computed = compute();
      if (!computed.ok()) return computed.status();
      if (cache_hit != nullptr) *cache_hit = false;
      return std::make_shared<const V>(std::move(computed).value());
    }
    return cell->GetOrCompute(ctx, cache_hit, std::forward<Fn>(compute));
  }

  size_t entries() const {
    MutexLock lock(mu_);
    return map_.size();
  }

  /// Drops every cell (the keyed form of LazyCell::Evict); in-flight
  /// callers keep their cells by shared_ptr and finish unaffected.
  void Clear() {
    std::unordered_map<K, std::shared_ptr<LazyCell<V>>, Hash> dropped;
    MutexLock lock(mu_);
    dropped.swap(map_);
  }

  /// Invokes `fn(key, value)` for every cell whose value is ready —
  /// the size-accounting walk. Cells are snapshotted under the lock and
  /// peeked outside it, so fn never runs while the map mutex is held.
  template <typename Fn>
  void ForEachReady(Fn&& fn) const {
    std::vector<std::pair<K, std::shared_ptr<LazyCell<V>>>> cells;
    {
      MutexLock lock(mu_);
      cells.reserve(map_.size());
      for (const auto& kv : map_) cells.emplace_back(kv.first, kv.second);
    }
    for (const auto& kv : cells) {
      std::shared_ptr<const V> value = kv.second->Peek();
      if (value != nullptr) fn(kv.first, *value);
    }
  }

 private:
  mutable Mutex mu_;
  size_t max_entries_;  // immutable after construction
  std::unordered_map<K, std::shared_ptr<LazyCell<V>>, Hash> map_
      RRR_GUARDED_BY(mu_);
};

}  // namespace internal

/// \brief Immutable prepared form of a dataset: validated once, owning the
/// expensive artifacts that are pure functions of the data so every query
/// against it — any k, any algorithm, any thread — shares them.
///
/// Owned artifacts:
///  - the validated (non-empty, all-finite) dataset itself;
///  - its columnar mirror (data/column_blocks.h), built once at creation
///    and kept for the object's lifetime: every full-data scan — corner
///    top-k, K-SETr draws, endpoint patches, evaluator rank counts — runs
///    through the blocked scoring kernel over it;
///  - for d == 2, the AngularSweep (initial ranked order) behind full-data
///    FindRanges and the exact evaluator, built on first use instead of per
///    call (queries the candidate index serves never build it);
///  - lazily-materialized shared caches: the skyline prefilter, the
///    convex-maxima LP results (the exact k = 1 representative), K-SETr
///    samples keyed by (k, sampler options), the MDRC corner-top-k
///    memo keyed by corner angles (one ranked list serves every k up to
///    the one it was computed at), and the chain of k-skyband candidate
///    indexes (one K-band index serves every k up to K whose band is at
///    least half as wide).
///
/// All methods are safe to call concurrently; laziness is internal
/// (compute-once slots with in-flight waiting). A preempted lazy compute
/// (Cancelled/DeadlineExceeded) is not cached — the next caller retries.
///
/// Construction is via Create (shared_ptr, so RrrEngine instances and
/// long-lived callers can share one prepared dataset); the object is
/// immutable from the caller's perspective thereafter.
class PreparedDataset {
 public:
  /// \brief State handed to CreateVersioned by the dynamic-update layer
  /// (core/dataset_updates.h): the new version's token and, when the base
  /// version had them, its incrementally-maintained k-skyband counts, so
  /// the first candidate build need not recount from scratch.
  ///
  /// The counts must be a pure function of the new dataset — the seed
  /// changes maintenance cost, never any result. `counts`, when non-null,
  /// are always-outranker counts capped at `counts_cap` (the
  /// CandidateIndex::CountAlwaysOutrankers contract). The columnar mirror
  /// is not seeded: CreateVersioned transposes a fresh one, as Create does.
  struct UpdateSeed {
    /// Version token of the new dataset state; must be assigned().
    DatasetVersion version;
    size_t counts_cap = 0;
    std::shared_ptr<const std::vector<uint32_t>> counts;
  };

  /// Validates `dataset` (non-empty, every cell finite — InvalidArgument
  /// otherwise), takes ownership and builds the columnar mirror — one
  /// O(n d) transpose; every other artifact is lazy (sweep() sorts on its
  /// first call). Data is assumed already normalized higher-is-better,
  /// as every solver requires. The prepared dataset gets a fresh version
  /// token (its own lineage, ordinal 0). `candidate` is the build policy of
  /// the shared k-skyband candidate indexes (decline thresholds and the
  /// dominance-count work budget; see SharedCandidateIndex).
  static Result<std::shared_ptr<const PreparedDataset>> Create(
      data::Dataset dataset, const CandidateIndexOptions& candidate = {});

  /// Create for the dynamic-update layer: the new version carries the
  /// token and the incrementally-maintained artifacts in `seed`. Identical
  /// to Create in every query-visible way.
  static Result<std::shared_ptr<const PreparedDataset>> CreateVersioned(
      data::Dataset dataset, const CandidateIndexOptions& candidate,
      UpdateSeed seed);

  const data::Dataset& dataset() const { return data_; }
  size_t size() const { return data_.size(); }
  size_t dims() const { return data_.dims(); }

  /// This dataset state's identity token — the engine's memo key
  /// component. Distinct row states never share a token.
  DatasetVersion version() const { return version_; }

  /// \brief Shared full-data sweep; non-null iff dims() == 2.
  ///
  /// Built once, on the first call (the O(n log n) initial sort), and
  /// shared by every later caller; concurrent first callers wait for the
  /// one build. Never evicted, so the pointer lives as long as this object.
  /// Counted in ArtifactBytes::dataset once built.
  const AngularSweep* sweep() const;

  /// The columnar mirror of dataset() (data/column_blocks.h), built at
  /// creation and owned for this object's lifetime; never evicted. Counted
  /// in ArtifactBytes::dataset.
  const data::ColumnBlocks& column_blocks() const { return *column_blocks_; }

  /// The mirror as a shared pointer, for callers that hold artifacts by
  /// shared_ptr (rrrbench's replay). Always a hit; `threads` and `ctx` are
  /// unused.
  Result<std::shared_ptr<const data::ColumnBlocks>> SharedColumnBlocks(
      size_t /*threads*/ = 0, const ExecContext& /*ctx*/ = {},
      bool* cache_hit = nullptr) const {
    if (cache_hit != nullptr) *cache_hit = true;
    return column_blocks_;
  }

  /// The cached always-outranker counts and their cap (0 when no candidate
  /// build has computed counts yet). The dynamic-update layer reads these
  /// to maintain them incrementally across versions.
  std::pair<size_t, std::shared_ptr<const std::vector<uint32_t>>>
  CandidateCountsSnapshot() const {
    MutexLock lock(candidate_mu_);
    return {candidates_.cap, candidates_.counts};
  }

  /// Skyline ids (lazy, memoized; the prefilter for the convex-maxima
  /// solve and a useful standalone summary).
  Result<std::shared_ptr<const std::vector<int32_t>>> SharedSkyline(
      const ExecContext& ctx = {}, bool* cache_hit = nullptr) const;

  /// Exact order-1 representative (skyline prefilter + per-candidate
  /// separation LPs), lazy and memoized — the convex-maxima LP results
  /// cache. `threads` fans the LPs out on the *first* call; `ctx` is
  /// checked before each candidate's LP, so a preempted compute returns
  /// Cancelled/DeadlineExceeded promptly and leaves the cell to retry.
  Result<std::shared_ptr<const std::vector<int32_t>>> SharedConvexMaxima(
      size_t threads, const ExecContext& ctx = {},
      bool* cache_hit = nullptr) const;

  /// K-SETr sample for (k, options), computed once and shared across
  /// queries (keyed by k plus every option that affects the sampled
  /// collection: seed, termination_count, max_samples — `threads` and the
  /// query-strategy flags don't, by the sampler's invariance contracts).
  /// `candidates` (may be null) is handed to SampleKSets on a cache miss;
  /// it does not key the cache because the sampled collection is
  /// bit-identical with and without it. At most 64 keys are cached; past
  /// that, samples compute uncached.
  Result<std::shared_ptr<const KSetSampleResult>> SharedKSets(
      size_t k, const KSetSamplerOptions& options, const ExecContext& ctx = {},
      bool* cache_hit = nullptr,
      const CandidateIndex* candidates = nullptr) const;

  /// Shared MDRC corner-top-k memo (pass to SolveMdrc), capped at 2^21
  /// stored corners.
  CornerTopKCache* corner_cache() const { return corner_cache_.get(); }

  /// \brief Shared k-skyband candidate index serving rank budget `k`
  /// (core/candidate_index.h), shared by every top-k hot path of the
  /// engine (MDRC corners, K-SETr draws, the 2D sweep, the sampled
  /// evaluator).
  ///
  /// The band is monotone in k, and a K-band answers every k' <= K
  /// bit-identically, so the indexes are kept as one chain rather than one
  /// per k. The served index has k() >= k and the narrowest band among
  /// the retained indexes, and is used only if that band holds at most
  /// twice the k-band's rows; |k-band| is read in O(1) from a cumulative
  /// histogram of the cached dominance counts. Otherwise an index is built
  /// at exactly k, and every retained index whose band is within a factor
  /// of two of the new one is dropped. Consecutive retained bands thus
  /// more than double: at most about log2(n) indexes, under twice the
  /// widest band in bytes, and every scan covers at most twice the rows of
  /// the exact k-band. Concurrent callers for one build k share one build.
  ///
  /// Returns a null pointer — not an error — when the build declined
  /// (small dataset, near-full band, or over-budget dominance count, by the
  /// CandidateIndexOptions handed to Create); callers then run unpruned,
  /// with bit-identical results either way. The dominance counts are
  /// cached at the largest k they were computed for and sliced for every
  /// smaller k instead of recounting; a k whose counted band keeps too
  /// large a fraction of the rows is declined from the histogram. The same
  /// monotonicity runs the other way for pre-check declines: once the
  /// pre-check has predicted a near-full band at some k, every larger k
  /// that no cached counts cover returns null at once, as a cache hit. A
  /// decline made without counts is remembered for its k until counts
  /// covering that k appear, and is then retried through the slice path.
  ///
  /// `threads` fans the dominance count out on a build (`ctx.threads`,
  /// when set, overrides it); like every shared artifact, the result is
  /// identical for every thread count.
  Result<std::shared_ptr<const CandidateIndex>> SharedCandidateIndex(
      size_t k, size_t threads = 0, const ExecContext& ctx = {},
      bool* cache_hit = nullptr) const;

  /// The retained candidate indexes, ascending in k and in band size: a
  /// snapshot of the chain SharedCandidateIndex serves from.
  std::vector<std::shared_ptr<const CandidateIndex>> CandidateChain() const;

  /// \brief Approximate heap footprint of the dataset and its shared
  /// artifact caches, broken down per artifact family — the size signal
  /// behind the service layer's memory budget. Estimates (capacity-based
  /// upper bounds), not an allocation census.
  struct ArtifactBytes {
    size_t dataset = 0;  // the rows, their mirror and the 2D sweep
    size_t skyline = 0;
    size_t convex_maxima = 0;
    size_t ksets = 0;           // K-SETr sample cache, every key
    size_t candidates = 0;      // the retained candidate-index chain
    size_t corner_topk = 0;     // MDRC corner memo
    size_t candidate_counts = 0;  // cached counts + band-size histogram

    /// Bytes EvictSharedArtifacts can free (everything but the dataset).
    size_t evictable() const {
      return skyline + convex_maxima + ksets + candidates + corner_topk +
             candidate_counts;
    }
    size_t total() const { return dataset + evictable(); }
  };

  /// Current footprint snapshot; safe to call concurrently with queries.
  ArtifactBytes ApproxArtifactBytes() const;

  /// \brief Sheds every shared artifact cache (evictable-cell protocol):
  /// ready lazy cells revert to idle, keyed caches and the corner memo are
  /// emptied, cached candidate counts and the decline floor are dropped.
  /// The dataset itself, its columnar mirror, and the d == 2 sweep (whose
  /// raw pointer callers may hold) stay.
  ///
  /// Returns the approximate bytes freed. Never races an in-flight query:
  /// queries hold artifacts by shared_ptr, so eviction only severs the
  /// cache references — the next query recomputes, bit-identically (every
  /// artifact is a deterministic pure function of the data).
  size_t EvictSharedArtifacts() const;

 private:
  struct KSetKey {
    size_t k;
    uint64_t seed;
    size_t termination_count;
    size_t max_samples;
    bool operator==(const KSetKey& other) const {
      return k == other.k && seed == other.seed &&
             termination_count == other.termination_count &&
             max_samples == other.max_samples;
    }
  };
  struct KSetKeyHash {
    size_t operator()(const KSetKey& key) const;
  };

  /// Outcome of one candidate-index build, shared by every caller that
  /// waited on it. `counted` records whether dominance counts (handed in
  /// or computed on the way) decided it: only an uncounted decline can
  /// change once counts covering its k appear.
  struct CandidateSlot {
    std::shared_ptr<const CandidateIndex> index;
    bool counted = false;
  };

  /// Everything SharedCandidateIndex keeps, under one mutex.
  ///
  /// `counts` are the always-outranker counts from the largest counted
  /// build, capped at `cap` = that build's min(k, n); any k <= cap slices
  /// these instead of recounting. (Counts capped at a smaller cap cannot
  /// be extended — saturated rows lose their exact values — so ascending-k
  /// query patterns recount per k, each recount budget-bounded by the
  /// build policy; descending patterns slice for free.) `band_sizes[k]` is
  /// |k-band| for every k <= cap, the cumulative histogram of `counts`.
  ///
  /// `decline_floor` is the smallest k whose build the sampled pre-check
  /// declined as a near-full band (CandidateIndex::Outcome::
  /// predicted_near_full_band), 0 when none has. The k-band only grows
  /// with k, so every k >= floor that the counts do not cover is declined
  /// without re-running the pre-check (a sum-order sort and a sampled
  /// count per k). Like the pre-check itself this only steers work: a
  /// declined index never changes a result. Budget and min_dataset_size
  /// declines leave the floor alone; EvictSharedArtifacts resets it.
  ///
  /// `chain` holds the retained indexes, ascending in k and band size,
  /// each band more than twice the one before. `builds` holds one cell
  /// per build k that is in flight, and per k whose uncounted build
  /// declined (a ready cell with a null index); a build leaves `builds`
  /// as soon as it produced an index or counts covering its k.
  struct CandidateState {
    size_t cap = 0;
    std::shared_ptr<const std::vector<uint32_t>> counts;
    std::vector<uint32_t> band_sizes;
    size_t decline_floor = 0;
    std::vector<std::shared_ptr<const CandidateIndex>> chain;
    std::unordered_map<size_t,
                       std::shared_ptr<internal::LazyCell<CandidateSlot>>>
        builds;
  };

  PreparedDataset(data::Dataset dataset,
                  const CandidateIndexOptions& candidate,
                  DatasetVersion version);

  /// Fills column_blocks_ with a mirror of data_ (construction only).
  Status BuildColumnBlocks();

  data::Dataset data_;
  CandidateIndexOptions candidate_options_;
  DatasetVersion version_;
  // d == 2 only, filled under sweep_once_ by the first sweep() call.
  mutable std::once_flag sweep_once_;
  mutable std::unique_ptr<AngularSweep> sweep_;
  // rrr-lockfree: the sweep() builder store-releases it after filling
  // sweep_; ApproxArtifactBytes, which bypasses the once_flag, acquires it
  // before reading sweep_.
  mutable std::atomic<bool> sweep_built_{false};
  // Built by Create/CreateVersioned right after construction, then
  // immutable. Shared so the SharedColumnBlocks shim can hand it out.
  std::shared_ptr<const data::ColumnBlocks> column_blocks_;
  std::unique_ptr<CornerTopKCache> corner_cache_;
  mutable internal::LazyCell<std::vector<int32_t>> skyline_;
  mutable internal::LazyCell<std::vector<int32_t>> convex_maxima_;
  mutable internal::KeyedLazyCache<KSetKey, KSetSampleResult, KSetKeyHash>
      kset_cache_;
  mutable Mutex candidate_mu_;
  mutable CandidateState candidates_ RRR_GUARDED_BY(candidate_mu_);
};

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_PREPARED_DATASET_H_
