#include "topk/threshold_algorithm.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/logging.h"
#include "common/mutex.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace topk {

namespace {

/// k at or above n / kDenseScanFraction answers via the blocked kernel
/// scan when a mirror is available: TA's stopping rule cannot fire before
/// depth ~ k on any data, so a query returning a quarter of the dataset
/// pays the full sorted-access overhead (per-id seen-marking, random
/// lookups) on top of an effectively complete scan. Results are
/// bit-identical on both sides of the threshold.
constexpr size_t kDenseScanFraction = 4;

}  // namespace

ThresholdAlgorithmIndex::ScratchLease::ScratchLease(
    const ThresholdAlgorithmIndex* index)
    : index_(index) {
  {
    MutexLock lock(index->scratch_mu_);
    if (!index->scratch_pool_.empty()) {
      scratch_ = std::move(index->scratch_pool_.back());
      index->scratch_pool_.pop_back();
    }
  }
  if (scratch_ == nullptr) {
    scratch_ = std::make_unique<Scratch>();
    scratch_->stamp.assign(index->dataset_.size(), 0);
  }
  if (++scratch_->epoch == 0) {  // wrap: old stamps would alias epoch 0
    std::fill(scratch_->stamp.begin(), scratch_->stamp.end(), 0u);
    scratch_->epoch = 1;
  }
}

ThresholdAlgorithmIndex::ScratchLease::~ScratchLease() {
  MutexLock lock(index_->scratch_mu_);
  index_->scratch_pool_.push_back(std::move(scratch_));
}

ThresholdAlgorithmIndex::ThresholdAlgorithmIndex(
    const data::Dataset& dataset, const data::ColumnBlocks* blocks)
    : dataset_(dataset), blocks_(blocks) {
  RRR_CHECK(blocks == nullptr || blocks->source() == &dataset)
      << "TA: blocks mirror a different dataset";
  const size_t n = dataset.size();
  const size_t d = dataset.dims();
  columns_.resize(d);
  for (size_t j = 0; j < d; ++j) {
    auto& col = columns_[j];
    col.resize(n);
    std::iota(col.begin(), col.end(), 0);
    std::sort(col.begin(), col.end(), [&](int32_t a, int32_t b) {
      const double va = dataset.at(static_cast<size_t>(a), j);
      const double vb = dataset.at(static_cast<size_t>(b), j);
      if (va != vb) return va > vb;
      return a < b;
    });
  }
}

std::vector<int32_t> ThresholdAlgorithmIndex::TopK(const LinearFunction& f,
                                                   size_t k) const {
  const size_t n = dataset_.size();
  const size_t d = dataset_.dims();
  RRR_CHECK(f.dims() == d) << "TA: function dimensionality mismatch";
  k = std::min(k, n);
  if (k == 0) {
    last_scan_depth_.store(0, std::memory_order_relaxed);
    return {};
  }
  if (blocks_ != nullptr && k * kDenseScanFraction >= n) {
    // Dense query: skip sorted access entirely and run the fused blocked
    // scan (bit-identical output). Block-max pruning may skip tail blocks
    // once the selection threshold forms, so the depth reflects the blocks
    // actually scored rather than a nominal full scan.
    ScanStats stats;
    std::vector<int32_t> out = TopKScan(*blocks_, f, k, BlockSkip::kAuto,
                                        &stats);
    last_scan_depth_.store(
        std::min(n, stats.blocks_scanned * data::ColumnBlocks::kBlockRows) *
            d,
        std::memory_order_relaxed);
    return out;
  }

  // Candidate heap keeps the best k seen so far; worst on top.
  struct Entry {
    double score;
    int32_t id;
  };
  auto worse = [](const Entry& a, const Entry& b) {
    // True when a is better than b: min-heap on "goodness" keeps the
    // weakest of the current top-k at the top.
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> best(worse);
  ScratchLease seen(this);

  size_t depth = 0;
  for (; depth < n; ++depth) {
    // One round of sorted access: position `depth` of every list.
    double threshold = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const int32_t id = columns_[j][depth];
      threshold +=
          f.weights()[j] * dataset_.at(static_cast<size_t>(id), j);
      if (seen.MarkSeen(id)) {
        const double score = f.Score(dataset_.row(static_cast<size_t>(id)));
        if (best.size() < k) {
          best.push(Entry{score, id});
        } else if (Outranks(score, id, best.top().score, best.top().id)) {
          best.pop();
          best.push(Entry{score, id});
        }
      }
    }
    // TA stopping rule: the k-th best already matches or beats every
    // unseen tuple's score ceiling. Ties are resolved conservatively (keep
    // scanning) because an unseen tuple with score == threshold could still
    // win the id tie-break only if its id is smaller — one extra round
    // settles it, so strict inequality is enough for exactness here: any
    // unseen tuple scores <= threshold, and an unseen tuple can only
    // displace the current k-th if its score is strictly greater OR equal
    // with smaller id; the equal-score case is covered once both of its
    // sorted positions pass `depth`, which the continued scan guarantees.
    if (best.size() == k && best.top().score > threshold) break;
    if (best.size() == k && best.top().score == threshold) {
      // Equal-score frontier: continue until the frontier strictly drops
      // (rare; exact-duplicate bands).
      continue;
    }
  }
  last_scan_depth_.store(std::min(depth + 1, n) * d, std::memory_order_relaxed);

  std::vector<int32_t> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top().id;
    best.pop();
  }
  return out;
}

std::vector<int32_t> ThresholdAlgorithmIndex::TopKSet(const LinearFunction& f,
                                                      size_t k) const {
  std::vector<int32_t> ids = TopK(f, k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace topk
}  // namespace rrr
