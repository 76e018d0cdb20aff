#include "core/candidate_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "topk/rank.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace core {

bool AlwaysOutranks(const double* j_row, int32_t j, const double* i_row,
                    int32_t i, size_t d) {
  bool all_strict = true;
  for (size_t c = 0; c < d; ++c) {
    if (j_row[c] < i_row[c]) return false;
    if (j_row[c] == i_row[c]) all_strict = false;
  }
  return all_strict || j < i;
}

namespace {

/// The sampled pre-check counts each sampled row's dominators within the
/// best kPrecheckPrefixFactor * k rows by coordinate sum, and declines when
/// more than kPrecheckMaxBandFraction of the sample lands in the band.
constexpr size_t kPrecheckPrefixFactor = 8;
constexpr double kPrecheckMaxBandFraction = 0.6;

/// Rows ordered by (coordinate sum desc, id asc). Any always-outranker of a
/// row precedes it in this order: strict dominance implies a strictly
/// larger sum, and weak dominance with an equal sum implies an identical
/// row, where the smaller id sorts first.
std::vector<int32_t> SumOrder(const data::Dataset& dataset,
                              std::vector<double>* sums) {
  const size_t n = dataset.size();
  const size_t d = dataset.dims();
  sums->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = dataset.row(i);
    double s = 0.0;
    for (size_t c = 0; c < d; ++c) s += row[c];
    (*sums)[i] = s;
  }
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const double sa = (*sums)[static_cast<size_t>(a)];
    const double sb = (*sums)[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

/// Always-outranker count of the row at sorted position `pos`, scanning at
/// most `prefix` predecessors, capped at `cap`.
uint32_t CountForRow(const data::Dataset& dataset,
                     const std::vector<int32_t>& order, size_t pos,
                     size_t prefix, uint32_t cap, size_t* scanned) {
  const size_t d = dataset.dims();
  const int32_t i = order[pos];
  const double* i_row = dataset.row(static_cast<size_t>(i));
  const size_t limit = std::min(pos, prefix);
  uint32_t count = 0;
  size_t q = 0;
  for (; q < limit && count < cap; ++q) {
    const int32_t j = order[q];
    if (AlwaysOutranks(dataset.row(static_cast<size_t>(j)), j, i_row, i, d)) {
      ++count;
    }
  }
  if (scanned != nullptr) *scanned += q;
  return count;
}

struct CountOutcome {
  std::vector<uint32_t> counts;  // indexed by original id
  bool aborted = false;          // work budget exceeded
};

Result<CountOutcome> CountWithBudget(const data::Dataset& dataset,
                                     const std::vector<int32_t>& order,
                                     uint32_t cap, size_t threads,
                                     size_t budget_pairs,
                                     const ExecContext& ctx) {
  const size_t n = dataset.size();
  CountOutcome out;
  out.counts.assign(n, 0);
  std::atomic<size_t> scanned_total{0};
  std::atomic<bool> over_budget{false};
  std::atomic<bool> preempted{false};
  ParallelForChunked(
      ResolveThreads(threads), n, 64, [&](size_t begin, size_t end) {
        if (over_budget.load(std::memory_order_relaxed) ||
            preempted.load(std::memory_order_relaxed)) {
          return;
        }
        // One thread runs all n rows as a single chunk, so the gate is
        // pumped per row, not only per chunk.
        PreemptionGate gate(ctx, 16);
        size_t scanned = 0;
        for (size_t pos = begin; pos < end; ++pos) {
          if (gate.Preempted()) {
            preempted.store(true, std::memory_order_relaxed);
            return;
          }
          out.counts[static_cast<size_t>(order[pos])] =
              CountForRow(dataset, order, pos, n, cap, &scanned);
          if (budget_pairs != 0 && scanned > (budget_pairs >> 4)) {
            if (scanned_total.fetch_add(scanned, std::memory_order_relaxed) +
                    scanned >
                budget_pairs) {
              over_budget.store(true, std::memory_order_relaxed);
              return;
            }
            scanned = 0;
          }
        }
        scanned_total.fetch_add(scanned, std::memory_order_relaxed);
      });
  if (preempted.load()) {
    Status cause = ctx.CheckPreempted();
    if (cause.ok()) cause = Status::Cancelled("dominance count preempted");
    return cause;
  }
  if (budget_pairs != 0 && scanned_total.load() > budget_pairs) {
    out.aborted = true;
  }
  out.aborted = out.aborted || over_budget.load();
  return out;
}

}  // namespace

Result<std::vector<uint32_t>> CandidateIndex::CountAlwaysOutrankers(
    const data::Dataset& dataset, size_t cap, size_t threads,
    const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (cap == 0) return Status::InvalidArgument("cap must be >= 1");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  std::vector<double> sums;
  const std::vector<int32_t> order = SumOrder(dataset, &sums);
  const uint32_t capped = static_cast<uint32_t>(
      std::min<size_t>(cap, dataset.size()));
  CountOutcome counted;
  RRR_ASSIGN_OR_RETURN(
      counted, CountWithBudget(dataset, order, capped, threads, 0, ctx));
  return std::move(counted.counts);
}

CandidateIndex::CandidateIndex(const data::Dataset& full, size_t k,
                               data::Dataset band,
                               std::vector<int32_t> band_ids)
    : full_(&full),
      k_(k),
      band_(std::move(band)),
      band_ids_(std::move(band_ids)) {
  // The band is this index's hot scan surface (every TopK/TopKSet, the
  // MinRankOfSubset band count, the band sweep's initial scoring), so its
  // columnar mirror is built unconditionally — one O(band * d) pass,
  // serial: the band build itself already gated profitability.
  Result<data::ColumnBlocks> mirror = data::ColumnBlocks::Build(band_, 1);
  RRR_CHECK(mirror.ok()) << mirror.status().ToString();
  band_blocks_ =
      std::make_unique<data::ColumnBlocks>(std::move(mirror).value());
  if (band_.dims() == 2) {
    band_sweep_ = std::make_unique<AngularSweep>(band_);
  }
}

Result<CandidateIndex::Outcome> CandidateIndex::Create(
    const data::Dataset& dataset, size_t k,
    const CandidateIndexOptions& options, const ExecContext& ctx,
    const std::vector<uint32_t>* counts) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  // NaNs would make the sum-order comparator's ordering undefined.
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  const size_t n = dataset.size();
  const size_t kk = std::min(k, n);
  const size_t threads = ResolveThreads(ctx.threads);

  Outcome out;
  std::shared_ptr<const std::vector<uint32_t>> owned_counts;
  if (counts != nullptr) {
    RRR_CHECK(counts->size() == n)
        << "precomputed counts size mismatches the dataset";
  } else {
    if (n < options.min_dataset_size) {
      out.decline_reason = "dataset below min_dataset_size";
      return out;
    }
    std::vector<double> sums;
    const std::vector<int32_t> order = SumOrder(dataset, &sums);

    const size_t budget =
        options.budget_slack_per_tuple == 0
            ? 0
            : n * (kk + options.budget_slack_per_tuple);

    // Two-stage sampled pre-check. Stage 1 predicts the band fraction from
    // a handful of rows, each counted only against a short best-sum
    // prefix: on data where pruning wins, k dominators show up within that
    // prefix; on anti-correlated data almost none do, and we decline for
    // O(sample * prefix * d) instead of paying the O(n^2 d) count. Stage 2
    // projects the full count's cost from the same sample with the prefix
    // uncapped, so an over-budget count is declined in milliseconds
    // instead of after burning the whole budget.
    if (options.precheck_sample > 0) {
      const size_t sample = std::min(options.precheck_sample, n);
      const size_t prefix = std::min(n, kPrecheckPrefixFactor * kk);
      Rng rng(0x5eedbad5ULL);
      std::vector<size_t> positions(sample);
      for (size_t s = 0; s < sample; ++s) {
        positions[s] = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      }
      // Both stages are sums of independent per-sample results, folded in
      // sample order, so the decision is the same for every thread count.
      std::vector<size_t> per_sample(sample);
      ParallelFor(threads, sample, [&](size_t s) {
        per_sample[s] = CountForRow(dataset, order, positions[s], prefix,
                                    static_cast<uint32_t>(kk), nullptr) < kk;
      });
      const size_t predicted_band =
          std::accumulate(per_sample.begin(), per_sample.end(), size_t{0});
      const double fraction =
          static_cast<double>(predicted_band) / static_cast<double>(sample);
      if (fraction > kPrecheckMaxBandFraction) {
        out.decline_reason = "pre-check predicted a near-full band";
        out.predicted_near_full_band = true;
        return out;
      }
      RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
      if (budget != 0) {
        ParallelFor(threads, sample, [&](size_t s) {
          per_sample[s] = 0;
          CountForRow(dataset, order, positions[s], n,
                      static_cast<uint32_t>(kk), &per_sample[s]);
        });
        const size_t sampled_pairs =
            std::accumulate(per_sample.begin(), per_sample.end(), size_t{0});
        const double projected = static_cast<double>(sampled_pairs) /
                                 static_cast<double>(sample) *
                                 static_cast<double>(n);
        if (projected > 1.25 * static_cast<double>(budget)) {
          out.decline_reason =
              "pre-check projected the dominance count over its work budget";
          return out;
        }
        RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
      }
    }
    CountOutcome counted;
    RRR_ASSIGN_OR_RETURN(
        counted, CountWithBudget(dataset, order, static_cast<uint32_t>(kk),
                                 threads, budget, ctx));
    if (counted.aborted) {
      out.decline_reason = "dominance count exceeded its work budget";
      return out;
    }
    owned_counts = std::make_shared<const std::vector<uint32_t>>(
        std::move(counted.counts));
    counts = owned_counts.get();
    out.counts = owned_counts;
  }

  // Sized exactly: the index keeps band_ids for life, and ApproxBytes (the
  // service's eviction signal) reads its capacity.
  const size_t band_size = static_cast<size_t>(
      std::count_if(counts->begin(), counts->end(),
                    [kk](uint32_t c) { return c < kk; }));
  const double fraction =
      static_cast<double>(band_size) / static_cast<double>(n);
  if (fraction > options.max_band_fraction) {
    out.decline_reason = "band keeps too large a fraction of the rows";
    return out;
  }
  std::vector<int32_t> band_ids;
  band_ids.reserve(band_size);
  for (size_t i = 0; i < n; ++i) {
    if ((*counts)[i] < kk) band_ids.push_back(static_cast<int32_t>(i));
  }

  const size_t d = dataset.dims();
  std::vector<double> cells;
  cells.reserve(band_ids.size() * d);
  for (int32_t id : band_ids) {
    const double* row = dataset.row(static_cast<size_t>(id));
    cells.insert(cells.end(), row, row + d);
  }
  Result<data::Dataset> band =
      data::Dataset::FromFlat(std::move(cells), band_ids.size(), d);
  RRR_CHECK(band.ok()) << band.status().ToString();
  out.index = std::shared_ptr<const CandidateIndex>(
      new CandidateIndex(dataset, kk, std::move(band).value(),
                         std::move(band_ids)));
  return out;
}

std::vector<int32_t> CandidateIndex::TopK(const topk::LinearFunction& f,
                                          size_t k,
                                          std::optional<double> floor) const {
  k = std::min(k, full_->size());  // same clamp as topk::TopKScan
  RRR_CHECK(k <= k_) << "CandidateIndex: top-" << k
                     << " requested from a band built for k = " << k_;
  // Band-local ids ascend with original ids, so the kernel's (score desc,
  // id asc) order over the band is the full dataset's order.
  std::vector<int32_t> ids =
      topk::TopKScan(*band_blocks_, f, k, nullptr, floor);
  for (int32_t& id : ids) id = band_ids_[static_cast<size_t>(id)];
  return ids;
}

std::vector<int32_t> CandidateIndex::TopKSet(
    const topk::LinearFunction& f, size_t k,
    std::optional<double> floor) const {
  k = std::min(k, full_->size());  // same clamp as topk::TopKSetScan
  RRR_CHECK(k <= k_) << "CandidateIndex: top-" << k
                     << " requested from a band built for k = " << k_;
  // Band ids ascend with original ids, so the sorted band-local set maps to
  // a sorted original-id set.
  std::vector<int32_t> ids =
      topk::TopKSetScan(*band_blocks_, f, k, nullptr, floor);
  for (int32_t& id : ids) id = band_ids_[static_cast<size_t>(id)];
  return ids;
}

int64_t CandidateIndex::MinRankOfSubset(
    const topk::LinearFunction& f, const std::vector<int32_t>& subset,
    const data::ColumnBlocks& full_blocks,
    size_t* full_scan_fallbacks) const {
  RRR_CHECK(!subset.empty()) << "MinRankOfSubset: empty subset";
  const data::Dataset& full = *full_;
  // Best member under the tie-broken order (same arithmetic as
  // topk::MinRankOfSubset — subset members may lie outside the band).
  int32_t best = subset[0];
  double best_score = f.Score(full.row(static_cast<size_t>(best)));
  for (size_t i = 1; i < subset.size(); ++i) {
    const int32_t t = subset[i];
    const double s = f.Score(full.row(static_cast<size_t>(t)));
    if (topk::Outranks(s, t, best_score, best)) {
      best = t;
      best_score = s;
    }
  }
  if (in_band(best)) {
    // Count band outrankers, blockwise through the kernel. While the
    // running rank stays <= k_, it is the exact full-dataset rank (band
    // top-k_ == full top-k_, ordered); scores are bit-identical to the row
    // loop, so the certify/fallback decision is too.
    constexpr size_t kBlockRows = data::ColumnBlocks::kBlockRows;
    const data::ColumnBlocks& mirror = *band_blocks_;
    const double* w = f.weights().data();
    const size_t d = mirror.dims();
    double buf[kBlockRows];
    int64_t rank = 1;
    bool certified = true;
    const size_t num_blocks = mirror.num_blocks();
    const bool use_skip = mirror.has_block_bounds();
    topk::ScanStats scan_stats;
    for (size_t blk = 0; blk < num_blocks && certified; ++blk) {
      // A block upper-bounded strictly below best_score holds no outranker
      // (a tie at best_score could, so ties scan — same strict-loss rule
      // as the kernel entry points).
      if (use_skip &&
          topk::BlockUpperBound(w, d, mirror.block_max(blk)) < best_score) {
        ++scan_stats.blocks_skipped;
        continue;
      }
      ++scan_stats.blocks_scanned;
      topk::ScoreBlock(w, d, mirror.block(blk), buf);
      const size_t rows = mirror.block_rows(blk);
      const size_t base = blk * kBlockRows;
      for (size_t lane = 0; lane < rows; ++lane) {
        const int32_t id = band_ids_[base + lane];
        if (id == best) continue;
        if (topk::Outranks(buf[lane], id, best_score, best)) {
          if (++rank > static_cast<int64_t>(k_)) {
            certified = false;
            break;
          }
        }
      }
    }
    topk::AccumulateScanCounters(scan_stats);
    if (certified) return rank;
  }
  if (full_scan_fallbacks != nullptr) ++(*full_scan_fallbacks);
  RRR_CHECK(full_blocks.source() == full_)
      << "CandidateIndex: full_blocks mirror a different dataset";
  return topk::MinRankOfSubset(full_blocks, f, subset);
}

size_t CandidateIndex::ApproxBytes() const {
  size_t bytes = band_.size() * band_.dims() * sizeof(double);
  bytes += band_ids_.capacity() * sizeof(int32_t);
  bytes += band_blocks_->ApproxBytes();
  if (band_sweep_ != nullptr) bytes += band_sweep_->ApproxBytes();
  return bytes;
}

}  // namespace core
}  // namespace rrr
