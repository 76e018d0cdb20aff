#ifndef RRR_CORE_MDRC_H_
#define RRR_CORE_MDRC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/exec_context.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "data/column_blocks.h"
#include "data/dataset.h"
#include "geometry/vec.h"

namespace rrr {
namespace core {

class CandidateIndex;

/// Tuning for SolveMdrc.
struct MdrcOptions {
  /// Depth cap, counted in bisections per angular dimension. 48 halvings
  /// shrink a cell below 1e-14 rad, at which point corner functions are
  /// numerically identical; a capped leaf falls back to the corner top-1.
  ///
  /// The cap is reachable in two situations: duplicate-heavy (degenerate)
  /// data, and k = 1 — where adjacent 1-sets are disjoint, so a cell
  /// straddling a winner-change direction can never have a common corner
  /// top-1 no matter how small it gets (a boundary case the paper does not
  /// discuss). In both cases the fallback item is within one rank exchange
  /// of optimal for every function in the (sub-1e-14 rad) cell.
  size_t max_splits_per_dim = 48;

  /// Budget on recursion-tree nodes. MDRC is designed for k a meaningful
  /// fraction of n (the paper uses 0.1%-10%); for tiny k in high dimension
  /// the partition must isolate every k-set boundary and the tree can grow
  /// combinatorially. Exceeding the budget aborts the solve with
  /// ResourceExhausted rather than consuming unbounded time and memory.
  size_t max_nodes = size_t{1} << 22;

  /// Cap on memoized corner top-k results (only used when SolveMdrc builds
  /// its own private cache; a shared CornerTopKCache carries its own cap).
  /// Past the cap new corners are evaluated without being cached (pure-CPU
  /// fallback), which bounds the memo at roughly
  /// max_cache_entries * (k + d) * 8 bytes even on explosive instances; the
  /// solver additionally holds one depth's corner lists while it runs.
  size_t max_cache_entries = size_t{1} << 21;

  /// When a leaf's corner intersection contains an already-chosen tuple,
  /// reuse it instead of adding a new one. Any intersection member
  /// satisfies Theorem 6, so this only shrinks the output (by 2-3x on the
  /// paper workloads at d >= 5 — see the micro_mdrc ablation). Off
  /// reproduces the paper's "return I[1]" literally.
  bool reuse_chosen = true;

  /// Worker threads for the partition expansion: 0 = hardware concurrency,
  /// 1 = serial. Each depth's distinct cell corners are evaluated
  /// concurrently (a corner-memo hit or one top-k scan each), then every
  /// cell of the depth intersects its corners concurrently; leaf decisions
  /// are replayed in the serial traversal order afterwards, so the
  /// representative is identical for every thread count (the equivalence
  /// tests pin this).
  size_t threads = 0;
};

/// Observability counters for a SolveMdrc run.
///
/// Every counter is independent of the thread count. Corners are resolved
/// once per depth: each distinct corner of a depth counts exactly once, as
/// a cache hit or an evaluation, so corner_evals + cache_hits is the number
/// of (depth, distinct corner) pairs. The split is exact too, except when a
/// capped cache is full: which racing corners won the last shard slots (and
/// so hit at the next depth) can then vary, but the sum cannot. With a
/// shared CornerTopKCache (engine queries), corners computed by *earlier*
/// solves count as hits here — the split reflects the shared cache's
/// warmth, which is the reuse signal callers want.
struct MdrcStats {
  /// Recursion-tree nodes visited.
  size_t nodes = 0;
  /// Nodes resolved by a common top-k item.
  size_t leaves = 0;
  /// Distinct per-depth corners that missed the memo cache (top-k scans).
  size_t corner_evals = 0;
  /// Distinct per-depth corners served from the memo cache.
  size_t cache_hits = 0;
  /// Leaves forced by the depth cap (0 on non-degenerate data).
  size_t depth_cap_leaves = 0;
  /// Deepest node level reached.
  size_t max_depth = 0;
  /// Size of the k-skyband candidate set the corner evaluations ran over
  /// (0 when no CandidateIndex was supplied — full-dataset scans).
  size_t skyband_size = 0;
};

/// \brief Concurrent memo of corner top-k evaluations keyed by
/// (k, exact corner angle vector), shareable across SolveMdrc calls.
///
/// Corner coordinates are dyadic fractions of pi/2 propagated top-down, so
/// equal corners are bit-identical doubles and exact-key hashing is sound —
/// and the same corners recur across queries at the same k (sibling cells
/// share corners; repeated solves share everything). PreparedDataset owns
/// one instance so every engine query against a dataset reuses all prior
/// corner work; SolveMdrc builds a private one when the caller passes none.
///
/// Entries are compute-once (std::call_once) and sharded to keep lock
/// contention off the hot path: a thread requesting an in-flight corner
/// waits for the computing thread instead of duplicating a top-k scan.
/// Results are shared immutable lists, so a caller's copy outlives any
/// shard mutation (Clear included) without duplicating the ids. The
/// per-shard entry cap bounds memory on explosive instances: past it,
/// corners are evaluated without being stored (SolveMdrc still shares
/// each result across the cells of one depth).
class CornerTopKCache {
 public:
  /// Per-call hit/miss counters (per solve, not per cache — a shared cache
  /// serves many solves, each wanting its own Diagnostics).
  struct Counters {
    // rrr-lockfree: per-solve tallies, relaxed increments summed after join
    std::atomic<size_t> evals{0};
    std::atomic<size_t> hits{0};
  };

  /// `dataset` must outlive the cache; `max_entries` caps stored corners
  /// across all k (same meaning as MdrcOptions::max_cache_entries).
  CornerTopKCache(const data::Dataset& dataset, size_t max_entries);

  /// The (sorted-set) top-k of the corner function at `angles`, memoized
  /// under key (k, angles). Thread-safe; `counters` (may be null) receives
  /// this call's hit/miss attribution. `candidates` (may be null) answers
  /// cache misses with a kernel scan over its k-skyband mirror instead of
  /// a full scan — bit-identical by the CandidateIndex contract,
  /// so entries computed with and without an index are interchangeable; it
  /// must be built over this cache's dataset with candidates->k() >= k.
  /// `blocks` (may be null, must mirror this cache's dataset) routes
  /// uncached full scans through the blocked scoring kernel — also
  /// bit-identical, so all four miss paths fill interchangeable entries.
  std::shared_ptr<const std::vector<int32_t>> TopKAt(
      size_t k, const geometry::Vec& angles, Counters* counters,
      const CandidateIndex* candidates = nullptr,
      const data::ColumnBlocks* blocks = nullptr);

  /// Dataset this cache evaluates against (identity-checked by SolveMdrc).
  const data::Dataset* dataset() const { return &dataset_; }

  /// Corners currently memoized (across every k).
  size_t entries() const;

  /// Approximate heap footprint of the memoized corners in bytes (keys,
  /// stored top-k id lists, and map-node overhead) — the eviction-budget
  /// signal for the service layer. An estimate, not an allocation census.
  size_t ApproxBytes() const;

  /// Drops every memoized corner, so later TopKAt calls recompute.
  /// Thread-safe and race-free against in-flight TopKAt calls: a computing
  /// thread holds its entry by shared_ptr and finishes against it
  /// unaffected — it just no longer shares with future callers.
  void Clear();

 private:
  static constexpr size_t kShards = 32;
  struct Entry {
    std::once_flag once;
    std::vector<int32_t> topk;
    // rrr-lockfree: entries hit the shard map *before* call_once fills
    // `topk`; observers bypassing the once_flag (ApproxBytes) acquire
    // `ready` before touching the vector, the filler store-releases it.
    std::atomic<bool> ready{false};
  };
  struct Key {
    size_t k;
    geometry::Vec angles;
    bool operator==(const Key& other) const {
      return k == other.k && angles == other.angles;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> map
        RRR_GUARDED_BY(mu);
  };

  std::vector<int32_t> Evaluate(size_t k, const geometry::Vec& angles,
                                const CandidateIndex* candidates,
                                const data::ColumnBlocks* blocks) const;

  const data::Dataset& dataset_;
  size_t per_shard_cap_;
  Shard shards_[kShards];
};

/// \brief Algorithm 5 (MDRC): function-space partitioning.
///
/// Recursively bisects the angle hyper-rectangle [0, pi/2]^(d-1) in
/// round-robin dimension order (a quadtree-flavored partition, Figure 8).
/// A node terminates when some tuple appears in the top-k of all 2^(d-1)
/// corner functions; that tuple then has rank <= d*k for *every* function
/// inside the node (Theorem 6, by induction over the arrangement lattice
/// with Theorem 1). The union of leaf tuples is the representative.
///
/// Corner top-k computations are memoized across sibling nodes (corners are
/// shared), which is what makes the algorithm near-constant in n in
/// practice; pass `corner_cache` to extend that memoization across solves
/// (the engine does). Measured rank-regret is typically <= k (Section 6).
///
/// Cost is O(nodes * 2^(d-1) * n log n) worst case — each uncached corner
/// evaluation is a top-k scan — but cache hits dominate on real data and
/// the node count is small for k a meaningful fraction of n (Section 6.3
/// reports near-constant scaling in n).
///
/// Fails with InvalidArgument for k == 0 or an empty dataset, and with
/// ResourceExhausted when the recursion exceeds options.max_nodes. Returns
/// Cancelled/DeadlineExceeded (no partial representative) when `ctx`
/// preempts the expansion, which is checked per corner evaluation.
///
/// `candidates` (may be null) routes every uncached corner top-k through
/// the k-skyband candidate index (core/candidate_index.h) instead of a
/// full-dataset scan; the representative and stats are bit-identical either
/// way (the equivalence tests pin this). It must be built over `dataset`
/// with candidates->k() >= min(k, n). `blocks` (may be null, must mirror
/// `dataset`) routes the remaining full-scan corner evaluations through the
/// blocked scoring kernel — again bit-identical.
Result<std::vector<int32_t>> SolveMdrc(const data::Dataset& dataset, size_t k,
                                       const MdrcOptions& options = {},
                                       MdrcStats* stats = nullptr,
                                       const ExecContext& ctx = {},
                                       CornerTopKCache* corner_cache = nullptr,
                                       const CandidateIndex* candidates =
                                           nullptr,
                                       const data::ColumnBlocks* blocks =
                                           nullptr);

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_MDRC_H_
