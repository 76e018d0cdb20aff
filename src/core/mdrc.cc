#include "core/mdrc.h"

#include <algorithm>
#include <atomic>
#include <memory>
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

/// The ascending id set of a ranked list's k-prefix over ids in [0, n): the
/// top-k set, since a top-k is the k-prefix of every longer ranked list.
/// Short prefixes are sorted; longer ones are collected through a bitmap
/// over the n ids, O(k + n / 64) with no comparisons.
std::vector<int32_t> SortedPrefix(const std::vector<int32_t>& ranked,
                                  size_t k, size_t n) {
  k = std::min(k, ranked.size());
  const auto end = ranked.begin() + static_cast<std::ptrdiff_t>(k);
  if (n / 64 > 4 * k) {
    std::vector<int32_t> ids(ranked.begin(), end);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  std::vector<uint64_t> bits((n + 63) / 64, 0);
  for (auto it = ranked.begin(); it != end; ++it) {
    const auto id = static_cast<size_t>(*it);
    bits[id >> 6] |= uint64_t{1} << (id & 63);
  }
  std::vector<int32_t> ids;
  ids.reserve(k);
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      ids.push_back(static_cast<int32_t>(w * 64 + __builtin_ctzll(word)));
    }
  }
  return ids;
}

/// Intersection of the (sorted) top-k sets of a node's 2^dims corners, in
/// corner-mask order with an early exit once empty. `first_corner_front`
/// receives the smallest id of the mask-0 (all-lows) corner's top-k — the
/// depth-cap fallback item.
std::vector<int32_t> CornerIntersection(
    const std::vector<std::vector<int32_t>>& table, const size_t* corner_slots,
    size_t corners, int32_t* first_corner_front) {
  const std::vector<int32_t>& first = table[corner_slots[0]];
  *first_corner_front = first.front();
  std::vector<int32_t> common = first;
  std::vector<int32_t> next;
  for (size_t mask = 1; mask < corners && !common.empty(); ++mask) {
    const std::vector<int32_t>& corner = table[corner_slots[mask]];
    next.clear();
    std::set_intersection(common.begin(), common.end(), corner.begin(),
                          corner.end(), std::back_inserter(next));
    common.swap(next);
  }
  return common;
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

std::vector<int32_t> CornerTopKCache::TopKAt(
    size_t k, const geometry::Vec& angles, Counters* counters,
    const CandidateIndex* candidates, const data::ColumnBlocks& blocks) {
  Shard& shard = shards_[KeyHash{}(angles) % kShards];
  std::shared_ptr<Entry> entry;
  bool hit = false;
  {
    MutexLock lock(shard.mu);
    auto it = shard.map.find(angles);
    if (it != shard.map.end()) {
      hit = it->second->k >= k;
      // A shorter list cannot serve k: evaluate at exactly k in the same
      // slot. Holders of the old entry keep it alive until they finish.
      if (!hit) it->second = std::make_shared<Entry>(k);
      entry = it->second;
    } else if (shard.map.size() < per_shard_cap_) {
      entry = std::make_shared<Entry>(k);
      shard.map.emplace(angles, entry);
    }
  }
  if (counters != nullptr) {
    (hit ? counters->hits : counters->evals)
        .fetch_add(1, std::memory_order_relaxed);
  }
  if (entry == nullptr) {  // shard at capacity: evaluate without caching
    return SortedPrefix(Evaluate(k, angles, candidates, blocks), k,
                        dataset_.size());
  }
  std::call_once(entry->once, [&] {
    // The filler may be a hitting caller whose band is too small for the
    // entry's K (the creator has not reached call_once yet): it scans the
    // full mirror instead, bit-identically.
    const CandidateIndex* index =
        candidates != nullptr && candidates->k() >= entry->k ? candidates
                                                              : nullptr;
    entry->ranked = Evaluate(entry->k, angles, index, blocks);
    entry->ready.store(true, std::memory_order_release);
  });
  return SortedPrefix(entry->ranked, k, dataset_.size());
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
      // the store in TopKAt).
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

std::vector<int32_t> CornerTopKCache::Evaluate(
    size_t k, const geometry::Vec& angles, const CandidateIndex* candidates,
    const data::ColumnBlocks& blocks) const {
  const topk::LinearFunction f = topk::LinearFunction::FromAngles(angles);
  if (candidates != nullptr) return candidates->TopK(f, k);
  return topk::TopKScan(blocks, f, k);
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
  const size_t kk = std::min(k, dataset.size());
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
  // corners than nodes * 2^(d-1) — as one parallel map into a level-local
  // table (cache hit or top-k scan each), then intersects every node's
  // corners from that table. The tree (and therefore the leaf set) is
  // identical for every thread count; only the evaluation order differs,
  // and the replay below erases that difference.
  const size_t corners_per_node = size_t{1} << angle_dims;
  std::vector<Node> frontier;
  std::vector<LeafRecord> leaf_records;
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
    max_depth = frontier.front().level;

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
        auto it = slot_of.emplace(angles, corners.size()).first;
        if (it->second == corners.size()) corners.push_back(&it->first);
        slots[i * corners_per_node + mask] = it->second;
      }
    }

    // One preemption point per corner: each costs at most one top-k scan.
    std::vector<std::vector<int32_t>> table(corners.size());
    ParallelFor(threads, corners.size(), [&](size_t c) {
      if (preempted.load(std::memory_order_relaxed)) return;
      if (!ctx.CheckPreempted().ok()) {
        preempted.store(true, std::memory_order_relaxed);
        return;
      }
      table[c] = corner_cache->TopKAt(kk, *corners[c], &counters, candidates,
                                      *blocks);
    });
    if (preempted.load(std::memory_order_relaxed)) break;

    std::vector<NodeOutcome> outcomes(frontier.size());
    ParallelFor(threads, frontier.size(), [&](size_t i) {
      NodeOutcome& out = outcomes[i];
      int32_t first_corner_front = -1;
      out.common = CornerIntersection(table, &slots[i * corners_per_node],
                                      corners_per_node, &first_corner_front);
      if (!out.common.empty()) {
        out.kind = NodeOutcome::kCommonLeaf;
      } else if (frontier[i].level >= max_level) {
        // Degenerate geometry: corners disagree at sub-epsilon cell sizes.
        // Keep the guarantee "some item per cell" with the all-lows
        // corner's smallest top-k id; counted so callers can detect the
        // fallback.
        out.kind = NodeOutcome::kDepthCapLeaf;
        out.fallback_item = first_corner_front;
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
          Node lower = std::move(node);
          lower.level = upper.level;
          lower.box[dim].second = mid;
          lower.path.push_back('1');
          next.push_back(std::move(upper));
          next.push_back(std::move(lower));
          break;
        }
      }
    }
    frontier = std::move(next);
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
