#ifndef RRR_CORE_MDRC_H_
#define RRR_CORE_MDRC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
  /// fallback). An entry holds its corner's ranked ids (4 bytes each, K of
  /// them) and its key of d - 1 double angles, so the memo stays near
  /// max_cache_entries * (4 * K + 8 * (d - 1)) bytes plus per-entry map
  /// overhead even on explosive instances; the solver additionally holds
  /// one depth's corner sets while it runs.
  size_t max_cache_entries = size_t{1} << 21;

  /// When a leaf's corner intersection contains an already-chosen tuple,
  /// reuse it instead of adding a new one. Any intersection member
  /// satisfies Theorem 6, so this only shrinks the output (by 2-3x on the
  /// paper workloads at d >= 5 — see the micro_mdrc ablation). Off
  /// reproduces the paper's "return I[1]" literally.
  bool reuse_chosen = true;

  /// Worker threads for the partition expansion: 0 = hardware concurrency,
  /// 1 = serial. Each depth looks its distinct cell corners up in the memo
  /// on the calling thread and evaluates only the misses concurrently (one
  /// top-k scan each); the depth's cells then intersect their corners
  /// concurrently when there are enough of them to pay for it. Leaf
  /// decisions are replayed in the serial traversal order afterwards, so
  /// the representative is identical for every thread count (the
  /// equivalence tests pin this).
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
/// solves count as hits here — at this k or at any larger k, whose ranked
/// list serves this k as a prefix — so the split reflects the shared
/// cache's warmth, which is the reuse signal callers want.
struct MdrcStats {
  /// Recursion-tree nodes visited.
  size_t nodes = 0;
  /// Nodes resolved by a common top-k item.
  size_t leaves = 0;
  /// Distinct per-depth corners that missed the memo cache (top-k scans).
  size_t corner_evals = 0;
  /// Distinct per-depth corners served from the memo cache, including
  /// prefix hits on entries computed at a larger k.
  size_t cache_hits = 0;
  /// Leaves forced by the depth cap (0 on non-degenerate data).
  size_t depth_cap_leaves = 0;
  /// Deepest node level reached.
  size_t max_depth = 0;
  /// Size of the k-skyband candidate set the corner evaluations ran over
  /// (0 when no CandidateIndex was supplied — full-dataset scans).
  size_t skyband_size = 0;
};

/// \brief Concurrent memo of ranked corner top-k lists keyed by the exact
/// corner angle vector alone, shareable across SolveMdrc calls at any k.
///
/// Corner coordinates are dyadic fractions of pi/2 propagated top-down, so
/// equal corners are bit-identical doubles and exact-key hashing is sound —
/// and the same corners recur across queries (sibling cells share corners;
/// repeated solves share everything). PreparedDataset owns one instance so
/// every engine query against a dataset reuses all prior corner work;
/// SolveMdrc builds a private one when the caller passes none.
///
/// Each entry holds its corner's *ranked* top-K (best first) and the K it
/// was computed at. Under the total order topk::Outranks (score desc, id
/// asc) a top-k is the k-prefix of the ranked top-K for every k <= K, so
/// one entry serves every smaller k as a hit — the sorted k-prefix, the
/// same set a scan at k returns. A request for k > K evaluates at exactly
/// k and replaces the entry in its map slot (the shard does not grow);
/// callers still holding the old entry finish against it. A descending k
/// ladder or a dual search's probes therefore scan each corner once, at
/// the largest k that reached it: the partition at a larger k is a subtree
/// of the one at a smaller k, so its corners are all reused.
///
/// Entries are compute-once (std::call_once) and sharded to keep lock
/// contention off the hot path: a thread requesting an in-flight corner
/// waits for the computing thread instead of duplicating a top-k scan.
/// The per-shard entry cap bounds memory on explosive instances: past it,
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
  /// (same meaning as MdrcOptions::max_cache_entries).
  CornerTopKCache(const data::Dataset& dataset, size_t max_entries);

 private:
  struct Entry;

 public:
  /// One caller's claim on a corner's memo entry, from Lookup. Holding it
  /// keeps the entry (and so its ranked list) alive, even past Clear or a
  /// larger-k replacement of the map slot.
  class Handle {
   public:
    /// Whether the lookup counted as a hit: an entry computed (or being
    /// computed) at some K >= k already held the corner's slot.
    bool hit() const { return hit_; }
    /// Whether the ranked list is filled, so Ranked cannot scan or wait.
    bool ready() const;

   private:
    friend class CornerTopKCache;
    std::shared_ptr<Entry> entry_;
    bool hit_ = false;
  };

  /// Memo probe for the top-k at `angles`, without evaluating anything.
  /// Thread-safe; `counters` (may be null) receives one hit (an entry at
  /// some K >= k) or one evaluation for this call. A miss claims the slot
  /// with an entry at exactly k — replacing a shorter entry in place — or,
  /// when the shard is at capacity, an entry private to the handle.
  Handle Lookup(size_t k, const geometry::Vec& angles, Counters* counters);

  /// The handle's ranked list (best first, at least min(k, n) ids),
  /// computed on the first call for its entry — other callers wait for it
  /// rather than repeating the scan. `angles` and `k` must be the
  /// Lookup's. `candidates` (may be null) answers the scan over its
  /// k-skyband mirror instead of a full scan — bit-identical by the
  /// CandidateIndex contract, so entries computed with and without an
  /// index serve each other; it must be built over this cache's dataset,
  /// and a band smaller than the entry's K is passed over for the full
  /// mirror. Otherwise the scan runs over `blocks`, the columnar mirror of
  /// this cache's dataset. `floor` (optional) is a proven lower bound on
  /// the corner's k-th best score (topk/score_kernel.h); it seeds the scan
  /// only when the entry is computed at exactly k, since it bounds nothing
  /// about a K-th best for K > k.
  const std::vector<int32_t>& Ranked(const Handle& handle, size_t k,
                                     const geometry::Vec& angles,
                                     const CandidateIndex* candidates,
                                     const data::ColumnBlocks& blocks,
                                     std::optional<double> floor =
                                         std::nullopt);

  /// Lookup + Ranked, as the top-k of the corner function at `angles`: an
  /// ascending id set (the sorted k-prefix of the ranked list).
  std::vector<int32_t> TopKAt(size_t k, const geometry::Vec& angles,
                              Counters* counters,
                              const CandidateIndex* candidates,
                              const data::ColumnBlocks& blocks);

  /// Dataset this cache evaluates against (identity-checked by SolveMdrc).
  const data::Dataset* dataset() const { return &dataset_; }

  /// Corners currently memoized.
  size_t entries() const;

  /// Approximate heap footprint of the memoized corners in bytes (keys,
  /// stored ranked id lists, and map-node overhead) — the eviction-budget
  /// signal for the service layer. An estimate, not an allocation census.
  size_t ApproxBytes() const;

  /// Drops every memoized corner, so later lookups recompute.
  /// Thread-safe and race-free against in-flight handles: a computing
  /// thread holds its entry by shared_ptr and finishes against it
  /// unaffected — it just no longer shares with future callers.
  void Clear();

 private:
  static constexpr size_t kShards = 32;
  struct Entry {
    explicit Entry(size_t k) : k(k) {}
    const size_t k;  // the K `ranked` is computed at
    std::once_flag once;
    std::vector<int32_t> ranked;  // top-K ids, best first
    // rrr-lockfree: the map holds entries before call_once fills `ranked`;
    // readers bypassing the once_flag (ApproxBytes, Handle::ready) acquire
    // `ready` before touching it, the filler store-releases it.
    std::atomic<bool> ready{false};
  };
  struct KeyHash {
    size_t operator()(const geometry::Vec& angles) const;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<geometry::Vec, std::shared_ptr<Entry>, KeyHash> map
        RRR_GUARDED_BY(mu);
  };

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
/// at any k (the engine does). Measured rank-regret is typically <= k
/// (Section 6).
///
/// Cost is O(nodes * 2^(d-1) * n log n) worst case — each uncached corner
/// evaluation is a top-k scan — but cache hits dominate on real data and
/// the node count is small for k a meaningful fraction of n (Section 6.3
/// reports near-constant scaling in n).
///
/// Fails with InvalidArgument for k == 0 or an empty dataset, and with
/// ResourceExhausted when the recursion exceeds options.max_nodes. Returns
/// Cancelled/DeadlineExceeded (no partial representative) when `ctx`
/// preempts the expansion, which is checked once per depth and once per
/// corner scan.
///
/// `candidates` (may be null) routes every uncached corner top-k through
/// the k-skyband candidate index (core/candidate_index.h) instead of a
/// full-dataset scan; the representative and stats are bit-identical either
/// way (the equivalence tests pin this). It must be built over `dataset`
/// with candidates->k() >= min(k, n). `blocks` is the columnar mirror of
/// `dataset` the remaining full-scan corner evaluations run over; a null
/// mirror is built (serially) for this call.
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
