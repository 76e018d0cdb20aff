#include "core/mdrc.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "core/candidate_index.h"
#include "geometry/angles.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {

namespace {

/// One partition-tree node: an axis-aligned box in angle space, plus its
/// branch path from the root ('0' = upper half, '1' = lower half per
/// split). Lexicographic path order equals the serial solver's traversal
/// order, which the leaf replay below depends on.
struct Node {
  std::vector<std::pair<double, double>> box;  // per-dimension [lo, hi]
  size_t level = 0;
  std::string path;
  size_t parent = 0;  // index of the split cell in the previous frontier
};

/// FNV-1a of the raw bytes of the corner coordinates. Corner coordinates
/// are dyadic fractions of pi/2 propagated top-down, so equal corners are
/// bit-identical doubles and byte hashing is sound.
struct CornerHash {
  size_t operator()(const geometry::Vec& angles) const {
    uint64_t h = kFnvOffsetBasis;
    for (double x : angles) h = FnvMix(h, x);
    return static_cast<size_t>(h);
  }
};

/// Word or id operations a depth runs inline on the calling thread rather
/// than fanning out: below it, a fork/join costs more than it saves.
constexpr size_t kInlineOps = size_t{1} << 15;

/// One depth's corner top-k sets, all in one form chosen by k. Every set
/// starts as its ranked k-prefix scattered into n bits. For k >= n / 64
/// those bits cost at most twice the id list they replace, so they are
/// the set, intersected by word AND. Below that the bits are extracted —
/// ascending, with no comparisons — into a sorted id list intersected by
/// merging. Either way a cell's intersection exits as soon as it is known
/// to be empty, and ids are extracted only for cells that resolve
/// (leaves).
class CornerSets {
 public:
  /// Sets of the top-`k` of n ids (1 <= k <= n).
  CornerSets(size_t k, size_t n)
      : k_(k), words_((n + 63) / 64), dense_(k * 64 >= n) {}

  /// Empties the sets and sizes them for a depth of `corners` corners.
  /// Storage is kept across depths, so a depth pays no fresh page faults.
  void Reset(size_t corners) {
    if (dense_) {
      bits_.assign(corners * words_, 0);
    } else {
      ids_.resize(corners * k_);
    }
  }

  /// Zeroed n-bit scratch for Build, one per building thread.
  std::vector<uint64_t> Scratch() const {
    return std::vector<uint64_t>(dense_ ? 0 : words_, 0);
  }

  /// Corner c's set from the k-prefix of its ranked list. `scratch` comes
  /// from Scratch() and is left zeroed again.
  void Build(size_t c, const std::vector<int32_t>& ranked,
             std::vector<uint64_t>* scratch) {
    uint64_t* bits = dense_ ? &bits_[c * words_] : scratch->data();
    const auto prefix = ranked.begin() + static_cast<std::ptrdiff_t>(k_);
    for (auto it = ranked.begin(); it != prefix; ++it) {
      const auto id = static_cast<size_t>(*it);
      bits[id >> 6] |= uint64_t{1} << (id & 63);
    }
    if (dense_) return;
    int32_t* ids = &ids_[c * k_];
    for (size_t w = 0; w < words_; ++w) {
      for (; bits[w] != 0; bits[w] &= bits[w] - 1) {
        *ids++ = static_cast<int32_t>(w * 64) + __builtin_ctzll(bits[w]);
      }
    }
  }

  /// Corner c's set as a copy of corner `from_c`'s set in `from` (same k
  /// and n): a parent corner's set carried over from the previous depth.
  void Copy(size_t c, const CornerSets& from, size_t from_c) {
    if (dense_) {
      std::copy_n(&from.bits_[from_c * words_], words_, &bits_[c * words_]);
    } else {
      std::copy_n(&from.ids_[from_c * k_], k_, &ids_[c * k_]);
    }
  }

  /// Rough operations to build one corner's set.
  size_t build_cost() const { return k_ + (dense_ ? 0 : words_); }

  /// Rough operations to intersect a cell of `count` corners.
  size_t intersect_cost(size_t count) const {
    return count * (dense_ ? words_ : k_);
  }

  /// Ascending ids common to the sets at slots[0..count), into `common`
  /// (left empty when there are none). The cell's opposite corners (the
  /// first and last slot, its least alike functions) go first, so the
  /// intersection tends to empty after one step.
  void Intersect(const size_t* slots, size_t count,
                 std::vector<int32_t>* common) const {
    common->clear();
    auto slot = [&](size_t c) {
      return c == 1 ? slots[count - 1] : c == count - 1 ? slots[1] : slots[c];
    };
    if (dense_) {
      // Per word, AND across the corners until the word empties; only
      // surviving words are extracted, so internal cells allocate nothing.
      for (size_t w = 0; w < words_; ++w) {
        uint64_t word = bits_[slots[0] * words_ + w];
        for (size_t c = 1; c < count && word != 0; ++c) {
          word &= bits_[slot(c) * words_ + w];
        }
        for (; word != 0; word &= word - 1) {
          common->push_back(static_cast<int32_t>(w * 64) +
                            __builtin_ctzll(word));
        }
      }
      return;
    }
    const int32_t* first = &ids_[slots[0] * k_];
    common->assign(first, first + k_);
    std::vector<int32_t> next;
    for (size_t c = 1; c < count && !common->empty(); ++c) {
      const int32_t* corner = &ids_[slot(c) * k_];
      next.clear();
      std::set_intersection(common->begin(), common->end(), corner,
                            corner + k_, std::back_inserter(next));
      common->swap(next);
    }
  }

  /// Smallest id of corner c's set.
  int32_t Front(size_t c) const {
    if (!dense_) return ids_[c * k_];
    for (size_t w = 0;; ++w) {
      const uint64_t word = bits_[c * words_ + w];
      if (word != 0) {
        return static_cast<int32_t>(w * 64) + __builtin_ctzll(word);
      }
    }
  }

 private:
  size_t k_;
  size_t words_;
  bool dense_;
  std::vector<uint64_t> bits_;  // dense: words_ per corner
  std::vector<int32_t> ids_;    // sparse: k_ sorted ids per corner
};

/// Grain for a chunked loop over items of `cost` operations each, such
/// that a loop worth less than kInlineOps runs on the calling thread.
size_t InlineGrain(size_t cost) {
  return std::max<size_t>(1, kInlineOps / std::max<size_t>(1, cost));
}

/// A proven lower bound on the k-th best score of `f`: the k-th best (so
/// the least) of its scores over a neighbour corner's k top ids. Those k
/// distinct rows all score at least that much, so f's own k-th best does
/// too; LinearFunction::Score is the kernel's lane arithmetic, so the
/// bound holds bit-exactly in the scan.
double SeedFloor(const data::Dataset& dataset, const topk::LinearFunction& f,
                 const std::vector<int32_t>& neighbour, size_t k) {
  double floor = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < k; ++i) {
    floor = std::min(floor,
                     f.Score(dataset.row(static_cast<size_t>(neighbour[i]))));
  }
  return floor;
}

/// A resolved cell, carried from the parallel expansion to the serial
/// replay. `common` holds the full corner intersection so the replay can
/// apply the order-dependent reuse_chosen logic exactly as the serial
/// traversal would.
struct LeafRecord {
  std::string path;
  std::vector<int32_t> common;  // empty for depth-cap leaves
  int32_t fallback_item = -1;   // set for depth-cap leaves
};

/// Per-node outcome of one expansion round.
struct NodeOutcome {
  enum Kind : uint8_t { kInternal, kCommonLeaf, kDepthCapLeaf };
  Kind kind = kInternal;
  std::vector<int32_t> common;
  int32_t fallback_item = -1;
};

}  // namespace

size_t CornerTopKCache::KeyHash::operator()(
    const geometry::Vec& angles) const {
  return CornerHash{}(angles);
}

CornerTopKCache::CornerTopKCache(const data::Dataset& dataset,
                                 size_t max_entries)
    : dataset_(dataset),
      per_shard_cap_(std::max<size_t>(1, max_entries / kShards)) {}

bool CornerTopKCache::Handle::ready() const {
  return entry_->ready.load(std::memory_order_acquire);
}

CornerTopKCache::Handle CornerTopKCache::Lookup(size_t k,
                                                const geometry::Vec& angles,
                                                Counters* counters) {
  Shard& shard = shards_[KeyHash{}(angles) % kShards];
  Handle handle;
  {
    MutexLock lock(shard.mu);
    auto it = shard.map.find(angles);
    if (it != shard.map.end()) {
      handle.hit_ = it->second->k >= k;
      // A shorter list cannot serve k: evaluate at exactly k in the same
      // slot. Holders of the old entry keep it alive until they finish.
      if (!handle.hit_) it->second = std::make_shared<Entry>(k);
      handle.entry_ = it->second;
    } else if (shard.map.size() < per_shard_cap_) {
      handle.entry_ = std::make_shared<Entry>(k);
      shard.map.emplace(angles, handle.entry_);
    }
  }
  // Shard at capacity: the entry is the handle's alone, never shared.
  if (handle.entry_ == nullptr) handle.entry_ = std::make_shared<Entry>(k);
  if (counters != nullptr) {
    (handle.hit_ ? counters->hits : counters->evals)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return handle;
}

const std::vector<int32_t>& CornerTopKCache::Ranked(
    const Handle& handle, size_t k, const geometry::Vec& angles,
    const CandidateIndex* candidates, const data::ColumnBlocks& blocks,
    std::optional<double> floor) {
  Entry& entry = *handle.entry_;
  std::call_once(entry.once, [&] {
    // The filler may be a hitting caller whose band is too small for the
    // entry's K (the creator has not reached call_once yet): it scans the
    // full mirror instead, bit-identically.
    const std::optional<double> seed =
        entry.k == k ? floor : std::optional<double>();
    const topk::LinearFunction f = topk::LinearFunction::FromAngles(angles);
    entry.ranked =
        candidates != nullptr && candidates->k() >= entry.k
            ? candidates->TopK(f, entry.k, seed)
            : topk::TopKScan(blocks, f, entry.k, nullptr, seed);
    entry.ready.store(true, std::memory_order_release);
  });
  return entry.ranked;
}

std::vector<int32_t> CornerTopKCache::TopKAt(
    size_t k, const geometry::Vec& angles, Counters* counters,
    const CandidateIndex* candidates, const data::ColumnBlocks& blocks) {
  const Handle handle = Lookup(k, angles, counters);
  const std::vector<int32_t>& ranked =
      Ranked(handle, k, angles, candidates, blocks);
  std::vector<int32_t> ids(
      ranked.begin(),
      ranked.begin() + static_cast<std::ptrdiff_t>(std::min(k, ranked.size())));
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t CornerTopKCache::entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

size_t CornerTopKCache::ApproxBytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& kv : shard.map) {
      bytes += sizeof(geometry::Vec) + kv.first.size() * sizeof(double);
      bytes += sizeof(Entry) + 2 * sizeof(void*);  // map-node overhead, roughly
      // A mid-fill entry's vector belongs to the filling thread until the
      // ready-release; count it only once published (acquire pairs with
      // the store in Ranked).
      if (kv.second->ready.load(std::memory_order_acquire)) {
        bytes += kv.second->ranked.capacity() * sizeof(int32_t);
      }
    }
  }
  return bytes;
}

void CornerTopKCache::Clear() {
  for (Shard& shard : shards_) {
    // Swap the map out under the lock and destroy it outside: in-flight
    // TopKAt callers hold their Entry by shared_ptr and are unaffected.
    std::unordered_map<geometry::Vec, std::shared_ptr<Entry>, KeyHash>
        dropped;
    {
      MutexLock lock(shard.mu);
      dropped.swap(shard.map);
    }
  }
}

Result<std::vector<int32_t>> SolveMdrc(const data::Dataset& dataset, size_t k,
                                       const MdrcOptions& options,
                                       MdrcStats* stats,
                                       const ExecContext& ctx,
                                       CornerTopKCache* corner_cache,
                                       const CandidateIndex* candidates,
                                       const data::ColumnBlocks* blocks) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  data::ColumnBlocks own_blocks;
  if (blocks == nullptr) {
    RRR_ASSIGN_OR_RETURN(own_blocks, data::ColumnBlocks::Build(dataset, 1));
    blocks = &own_blocks;
  }
  RRR_CHECK(blocks->source() == &dataset)
      << "SolveMdrc: blocks mirror a different dataset";
  MdrcStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MdrcStats{};

  const size_t d = dataset.dims();
  if (d == 1) {
    // One ranking function total; its top-1 is a perfect representative.
    return topk::TopKScan(*blocks, topk::LinearFunction({1.0}), 1);
  }
  const size_t angle_dims = d - 1;
  const size_t max_level = options.max_splits_per_dim * angle_dims;
  const size_t threads = ResolveThreads(ctx.ThreadsOver(options.threads));
  const size_t n = dataset.size();
  const size_t kk = std::min(k, n);
  if (candidates != nullptr) {
    RRR_CHECK(candidates->full_dataset() == &dataset)
        << "CandidateIndex built over a different dataset";
    RRR_CHECK(candidates->k() >= kk)
        << "CandidateIndex band too small for this k";
    stats->skyband_size = candidates->band_size();
  }

  RRR_FAILPOINT("core.artifact.corner_topk");
  std::unique_ptr<CornerTopKCache> own_cache;
  if (corner_cache == nullptr) {
    own_cache = std::make_unique<CornerTopKCache>(dataset,
                                                  options.max_cache_entries);
    corner_cache = own_cache.get();
  } else {
    RRR_CHECK(corner_cache->dataset() == &dataset)
        << "shared CornerTopKCache built over a different dataset";
  }
  CornerTopKCache::Counters counters;

  size_t nodes = 0;
  size_t leaves = 0;
  size_t depth_cap_leaves = 0;
  size_t max_depth = 0;
  bool exhausted = false;
  std::atomic<bool> preempted{false};

  // Level-synchronous expansion. Each round first resolves the frontier's
  // distinct corners — siblings share corners, so a level has far fewer
  // corners than nodes * 2^(d-1) — into a level-local table, then
  // intersects every node's corners from that table. Memo lookups run on
  // the calling thread; only misses fan out, each one top-k scan, floored
  // from its neighbours when the last split created it. Corner sets of the
  // split cells carry over to the next depth. The tree (and therefore the
  // leaf set) is identical for every thread count; only the evaluation
  // order differs, and the replay below erases that difference.
  const size_t corners_per_node = size_t{1} << angle_dims;
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<Node> frontier;
  std::vector<LeafRecord> leaf_records;
  CornerSets sets(kk, n);
  CornerSets carried(kk, n);        // the previous depth's sets
  std::vector<size_t> carried_slots;  // the previous depth's slots
  Node root;
  root.box.assign(angle_dims, {0.0, geometry::kHalfPi});
  frontier.push_back(std::move(root));

  while (!frontier.empty()) {
    // The budget is checked before any of the level's corners run, so an
    // over-budget tree fails without paying for its last level.
    if (nodes + frontier.size() > options.max_nodes) {
      exhausted = true;
      break;
    }
    nodes += frontier.size();
    const size_t level = frontier.front().level;  // shared by the frontier
    max_depth = level;
    if (!ctx.CheckPreempted().ok()) {
      preempted.store(true, std::memory_order_relaxed);
      break;
    }

    // Distinct corners in first-seen order; node i's corner `mask` is
    // *corners[slots[i * corners_per_node + mask]], a key of `slot_of`
    // (map nodes never move, so the pointers stay valid).
    std::unordered_map<geometry::Vec, size_t, CornerHash> slot_of;
    std::vector<const geometry::Vec*> corners;
    std::vector<size_t> slots(frontier.size() * corners_per_node);
    geometry::Vec angles(angle_dims);
    for (size_t i = 0; i < frontier.size(); ++i) {
      const Node& node = frontier[i];
      for (size_t mask = 0; mask < corners_per_node; ++mask) {
        for (size_t j = 0; j < angle_dims; ++j) {
          angles[j] = (mask >> j & 1) ? node.box[j].second : node.box[j].first;
        }
        auto it = slot_of.try_emplace(angles, corners.size()).first;
        if (it->second == corners.size()) corners.push_back(&it->first);
        slots[i * corners_per_node + mask] = it->second;
      }
    }

    // Below the root, the last split put a new midpoint on one dimension.
    // A corner of a cell is either a parent corner — a corner of the split
    // cell, at the same mask, whose set the previous depth already built —
    // or a new corner on the midpoint. The upper child ('0', box
    // [mid, hi]) has its new corners at the split bit clear, the lower
    // child ('1', box [lo, mid]) at the bit set. A new corner lies between
    // two parent corners across the split dimension, one in each child;
    // their top-k lists seed its floor.
    std::vector<size_t> carried_from(corners.size(), kNone);
    std::vector<std::array<size_t, 2>> seeds(corners.size(), {kNone, kNone});
    if (level > 0) {
      const size_t bit = size_t{1} << ((level - 1) % angle_dims);
      for (size_t i = 0; i < frontier.size(); ++i) {
        const bool upper = frontier[i].path.back() == '0';
        const size_t* node_slots = &slots[i * corners_per_node];
        const size_t* parent_slots =
            &carried_slots[frontier[i].parent * corners_per_node];
        for (size_t mask = 0; mask < corners_per_node; ++mask) {
          const size_t c = node_slots[mask];
          if (((mask & bit) != 0) == upper) {
            carried_from[c] = parent_slots[mask];
          } else {
            seeds[c][upper ? 1 : 0] = node_slots[mask ^ bit];
          }
        }
      }
    }

    // Memo lookups on the calling thread. Ready hits are read in place;
    // misses (and hits another solve is still filling) fan out, parent
    // corners first so every new corner's neighbour list exists for its
    // floor.
    std::vector<CornerTopKCache::Handle> handles(corners.size());
    std::vector<const std::vector<int32_t>*> ranked(corners.size(), nullptr);
    std::vector<size_t> parent_waits;
    std::vector<size_t> seeded_waits;
    for (size_t c = 0; c < corners.size(); ++c) {
      handles[c] = corner_cache->Lookup(kk, *corners[c], &counters);
      if (handles[c].ready()) {
        ranked[c] = &corner_cache->Ranked(handles[c], kk, *corners[c],
                                          candidates, *blocks);
      } else {
        (seeds[c][0] == kNone && seeds[c][1] == kNone ? parent_waits
                                                      : seeded_waits)
            .push_back(c);
      }
    }
    // One preemption point per corner resolved here: each costs at most
    // one top-k scan. Only a miss owns its entry at exactly kk, so only a
    // miss takes a floor.
    auto resolve = [&](const std::vector<size_t>& waits) {
      ParallelFor(threads, waits.size(), [&](size_t w) {
        if (preempted.load(std::memory_order_relaxed)) return;
        if (!ctx.CheckPreempted().ok()) {
          preempted.store(true, std::memory_order_relaxed);
          return;
        }
        const size_t c = waits[w];
        std::optional<double> floor;
        if (!handles[c].hit()) {
          const topk::LinearFunction f =
              topk::LinearFunction::FromAngles(*corners[c]);
          for (size_t seed : seeds[c]) {
            if (seed == kNone) continue;
            const double bound = SeedFloor(dataset, f, *ranked[seed], kk);
            floor = std::max(floor.value_or(bound), bound);
          }
        }
        ranked[c] = &corner_cache->Ranked(handles[c], kk, *corners[c],
                                          candidates, *blocks, floor);
      });
    };
    resolve(parent_waits);
    if (preempted.load(std::memory_order_relaxed)) break;
    resolve(seeded_waits);
    if (preempted.load(std::memory_order_relaxed)) break;

    sets.Reset(corners.size());
    ParallelForChunked(threads, corners.size(), InlineGrain(sets.build_cost()),
                       [&](size_t begin, size_t end) {
                         std::vector<uint64_t> scratch = sets.Scratch();
                         for (size_t c = begin; c < end; ++c) {
                           if (carried_from[c] != kNone) {
                             sets.Copy(c, carried, carried_from[c]);
                           } else {
                             sets.Build(c, *ranked[c], &scratch);
                           }
                         }
                       });

    std::vector<NodeOutcome> outcomes(frontier.size());
    ParallelForChunked(
        threads, frontier.size(),
        InlineGrain(sets.intersect_cost(corners_per_node)),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            NodeOutcome& out = outcomes[i];
            const size_t* node_slots = &slots[i * corners_per_node];
            sets.Intersect(node_slots, corners_per_node, &out.common);
            if (!out.common.empty()) {
              out.kind = NodeOutcome::kCommonLeaf;
            } else if (level >= max_level) {
              // Degenerate geometry: corners disagree at sub-epsilon cell
              // sizes. Keep the guarantee "some item per cell" with the
              // all-lows corner's smallest top-k id; counted so callers can
              // detect the fallback.
              out.kind = NodeOutcome::kDepthCapLeaf;
              out.fallback_item = sets.Front(node_slots[0]);
            }
          }
        });

    std::vector<Node> next;
    next.reserve(2 * frontier.size());
    for (size_t i = 0; i < frontier.size(); ++i) {
      NodeOutcome& out = outcomes[i];
      Node& node = frontier[i];
      switch (out.kind) {
        case NodeOutcome::kCommonLeaf:
          ++leaves;
          leaf_records.push_back(
              LeafRecord{std::move(node.path), std::move(out.common), -1});
          break;
        case NodeOutcome::kDepthCapLeaf:
          ++depth_cap_leaves;
          leaf_records.push_back(
              LeafRecord{std::move(node.path), {}, out.fallback_item});
          break;
        case NodeOutcome::kInternal: {
          const size_t dim = node.level % angle_dims;
          const double mid =
              0.5 * (node.box[dim].first + node.box[dim].second);
          Node upper = node;
          upper.level = node.level + 1;
          upper.box[dim].first = mid;
          upper.path.push_back('0');  // visited first by the serial solver
          upper.parent = i;
          Node lower = std::move(node);
          lower.level = upper.level;
          lower.parent = i;
          lower.box[dim].second = mid;
          lower.path.push_back('1');
          next.push_back(std::move(upper));
          next.push_back(std::move(lower));
          break;
        }
      }
    }
    frontier = std::move(next);
    std::swap(sets, carried);
    carried_slots.swap(slots);
  }

  stats->nodes = nodes;
  stats->leaves = leaves;
  stats->depth_cap_leaves = depth_cap_leaves;
  stats->max_depth = max_depth;
  stats->corner_evals = counters.evals.load();
  stats->cache_hits = counters.hits.load();
  if (preempted.load()) {
    // Surface the precise cause (Cancelled vs DeadlineExceeded), with no
    // partial representative.
    Status cause = ctx.CheckPreempted();
    if (cause.ok()) cause = Status::Cancelled("MDRC expansion preempted");
    return cause;
  }
  if (exhausted) {
    return Status::ResourceExhausted(
        "MDRC node budget exceeded; k is likely too small relative to n "
        "for this dimensionality (raise MdrcOptions::max_nodes or k)");
  }

  // Serial replay in traversal order. reuse_chosen makes each leaf's
  // decision depend on every earlier leaf's decision, so the replay walks
  // the leaves exactly as the depth-first serial solver would reach them;
  // this is what makes the output thread-count-invariant.
  std::sort(leaf_records.begin(), leaf_records.end(),
            [](const LeafRecord& a, const LeafRecord& b) {
              return a.path < b.path;
            });
  std::unordered_set<int32_t> chosen;
  for (const LeafRecord& rec : leaf_records) {
    if (rec.common.empty()) {
      chosen.insert(rec.fallback_item);
      continue;
    }
    // Prefer an already-chosen tuple (any member of the intersection
    // satisfies Theorem 6, so reusing one shrinks the output for free);
    // otherwise take the smallest id for determinism.
    bool reused = false;
    if (options.reuse_chosen) {
      for (int32_t id : rec.common) {
        if (chosen.count(id) != 0) {
          reused = true;
          break;
        }
      }
    }
    if (!reused) chosen.insert(rec.common.front());
  }

  std::vector<int32_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace core
}  // namespace rrr
