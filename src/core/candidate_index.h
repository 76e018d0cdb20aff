#ifndef RRR_CORE_CANDIDATE_INDEX_H_
#define RRR_CORE_CANDIDATE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "core/sweep.h"
#include "data/column_blocks.h"
#include "data/dataset.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {

/// Build policy for CandidateIndex::Create. The defaults are conservative:
/// the index declines to build (Outcome.index == nullptr) whenever the
/// dominance structure of the data suggests pruning would not pay for
/// itself, so callers can request an index unconditionally and fall back to
/// full scans on a null result. The dominance count takes its worker
/// threads from the ExecContext; the sampled pre-check's prefix width and
/// decline threshold are fixed in candidate_index.cc.
struct CandidateIndexOptions {
  /// Datasets smaller than this decline immediately: a full scan over a few
  /// thousand rows is cheaper than maintaining a second dataset + index.
  size_t min_dataset_size = 4096;
  /// Decline when the band would keep more than this fraction of the rows
  /// (scanning the band would barely beat scanning everything).
  double max_band_fraction = 0.85;
  /// Sampled pre-check: estimate the band fraction from this many randomly
  /// chosen rows, counting each one's dominators only within the best
  /// 8 * k rows by coordinate sum, and decline when more than 60% of the
  /// sample lands in the band. Anti-correlated data — where the count
  /// itself would cost O(n^2 d) — is declined here for O(sample * k * d).
  /// 0 disables the pre-check.
  size_t precheck_sample = 256;
  /// Hard budget on the dominance count, measured in scanned candidate
  /// pairs: (k + budget_slack_per_tuple) * n. The count aborts (declines)
  /// past it — the backstop for data that slips through the pre-check but
  /// would still cost far more to index than the scans it saves. n * k
  /// pairs is the unavoidable floor (every dominated row must surface k
  /// dominators), so the slack is the per-row allowance beyond it; the
  /// default keeps speculative build work at roughly one second per 100k
  /// rows. Consumers with heavy query volume (many sampler draws or
  /// evaluator functions per dataset) should raise it — or set 0
  /// (unlimited) — in the options handed to PreparedDataset::Create or
  /// DynamicDataset::Create. 0 = unlimited.
  size_t budget_slack_per_tuple = 2048;
};

/// \brief The always-outranks predicate under the library tie order: true
/// when row j beats row i under EVERY non-negative, not-all-zero weight
/// vector — strict coordinate dominance, or weak dominance with j's id
/// smaller (covers exact duplicates and zero-weight corner functions; see
/// the CandidateIndex class comment).
///
/// Exported as the shared primitive of k-skyband maintenance: Create's
/// dominance count uses it, and the dynamic-update layer
/// (core/dataset_updates.h) applies it pairwise to keep always-outranker
/// counts exact across inserts and deletes without a full recount.
bool AlwaysOutranks(const double* j_row, int32_t j, const double* i_row,
                    int32_t i, size_t d);

/// \brief k-skyband candidate-pruning layer: the set of tuples that can
/// appear in the top-k of *some* non-negative linear ranking function,
/// materialized as a compact dataset + columnar mirror so every top-k hot
/// path (MDRC corner evaluations, K-SETr draws, k-set-graph
/// candidates, the sampled evaluator, the 2D sweep) runs over it instead of
/// the raw dataset.
///
/// The pruning rule extends the paper's skyline argument (Section 3) from
/// k = 1 to general k, sharpened for the library's deterministic tie order
/// (score desc, id asc — topk::Outranks). Tuple j *always outranks* tuple i
/// when j beats i under every non-negative, not-all-zero weight vector:
///
///   - j > i strictly on every coordinate (strict score dominance for any
///     such function), or
///   - j >= i on every coordinate and j's id is smaller (scores can tie —
///     e.g. under an axis-aligned corner function that ignores the strict
///     coordinates — but the id tie-break then still favors j).
///
/// A tuple with >= k always-outrankers has rank > k under every function,
/// so dropping it can never change a top-k. Plain Pareto dominance is NOT
/// sufficient here: a dominator with a larger id loses the tie-break under
/// zero-weight (axis/corner endpoint) functions, which MDRC corners and the
/// 2D sweep endpoints probe. The band therefore satisfies the *bit-identical
/// contract*: for every function with non-negative weights and every
/// k' <= k, the ordered top-k' of the band (ids mapped back) equals the
/// ordered top-k' of the full dataset. The band is monotone in k — the
/// (k+1)-band contains the k-band — which is what lets PreparedDataset
/// cache the largest computed dominance count and slice it for smaller k,
/// and serve a smaller k from a retained index of a larger one.
///
/// Cost: the count sorts rows by coordinate sum (only earlier rows in that
/// order can always-outrank a row) and scans each row's prefix with an
/// early exit at k, parallel over rows and cancellable via ExecContext;
/// O(n log n + sum of per-row scan lengths), worst case O(n^2 d) — which is
/// why Create declines on data whose pre-check predicts a useless band.
///
/// Thread-safety: all query methods are const and safe to call
/// concurrently. The referenced full dataset must outlive the index.
class CandidateIndex {
 public:
  /// Outcome of Create: `index` is null when the build declined (the data
  /// would not benefit); `decline_reason` then says why. A declined build
  /// is not an error — callers fall back to unpruned scans.
  struct Outcome {
    std::shared_ptr<const CandidateIndex> index;
    std::string decline_reason;
    /// True iff the sampled pre-check declined because it predicted a
    /// near-full band. The k-band only grows with k, so PreparedDataset
    /// takes this decline as the answer for every larger k too.
    bool predicted_near_full_band = false;
    /// The dominance counts computed on the way (capped at min(k, n)),
    /// non-null when counting completed — PreparedDataset caches them for
    /// the monotone slice path. Null when the build declined before or
    /// during the count.
    std::shared_ptr<const std::vector<uint32_t>> counts;
  };

  /// Builds the k-band index over `dataset` (which must be non-empty, all
  /// finite, and outlive the index). `counts`, when non-null, must be
  /// always-outranker counts for this dataset capped at >= min(k, n); the
  /// pre-check and work budget are then skipped (the expensive part is
  /// already paid). Fails only on preemption (Cancelled/DeadlineExceeded)
  /// or invalid arguments; an unprofitable build declines instead.
  static Result<Outcome> Create(
      const data::Dataset& dataset, size_t k,
      const CandidateIndexOptions& options = {}, const ExecContext& ctx = {},
      const std::vector<uint32_t>* counts = nullptr);

  /// Per-row always-outranker counts, capped at `cap` (rows with >= cap
  /// outrankers report exactly cap). Deterministic for every thread count.
  /// Exposed for the slice cache and the monotonicity tests; Create is the
  /// usual entry point.
  static Result<std::vector<uint32_t>> CountAlwaysOutrankers(
      const data::Dataset& dataset, size_t cap, size_t threads = 0,
      const ExecContext& ctx = {});

  /// Band parameter: queries are valid for any k' <= k.
  size_t k() const { return k_; }
  /// The full dataset this index prunes (identity-checked by consumers).
  const data::Dataset* full_dataset() const { return full_; }
  /// The pruned rows as a compact dataset, in ascending original-id order.
  const data::Dataset& band() const { return band_; }
  /// band() row -> original dataset id (ascending).
  const std::vector<int32_t>& band_ids() const { return band_ids_; }
  size_t band_size() const { return band_ids_.size(); }
  /// Band membership, by binary search over the ascending band_ids().
  bool in_band(int32_t id) const {
    return std::binary_search(band_ids_.begin(), band_ids_.end(), id);
  }
  /// Angular sweep over the band; non-null iff the data is 2D.
  const AngularSweep* band_sweep() const { return band_sweep_.get(); }
  /// Columnar mirror of band() (always built — the band is the hot scan
  /// surface, and the mirror costs one O(band * d) pass).
  const data::ColumnBlocks* band_blocks() const { return band_blocks_.get(); }

  /// Ids of the top-k' tuples of the FULL dataset under `f`, best first —
  /// bit-identical to topk::TopKScan over the full mirror for k' <= k(),
  /// answered by the same buffered selection over band_blocks(), with
  /// block skip and scan counters as for any mirror. RRR_CHECKs k' <= k().
  /// `floor` is the kernel's score floor (topk/score_kernel.h): a lower
  /// bound on the full dataset's k'-th best score, which the band shares
  /// (the band holds every top-k'), so it passes through unmapped.
  std::vector<int32_t> TopK(const topk::LinearFunction& f, size_t k,
                            std::optional<double> floor = std::nullopt) const;

  /// TopK + ascending-sorted ids — bit-identical to topk::TopKSetScan over
  /// the full mirror.
  std::vector<int32_t> TopKSet(
      const topk::LinearFunction& f, size_t k,
      std::optional<double> floor = std::nullopt) const;

  /// \brief Exact minimum rank of `subset` under `f` over the FULL dataset —
  /// bit-identical to topk::MinRankOfSubset — computed over the band when
  /// the answer is <= k() (the common case for representatives) and by a
  /// full fallback scan otherwise.
  ///
  /// Sound because the band's ordered top-k equals the full top-k: a best
  /// member that is in the band with fewer than k() band outrankers has
  /// exactly that rank in the full dataset too. `full_scan_fallbacks`
  /// (may be null) is incremented when the fallback fires. The band count
  /// always runs through the blocked kernel (band_blocks()); the fallback
  /// scans `full_blocks`, the full dataset's mirror (e.g.
  /// PreparedDataset::column_blocks()).
  int64_t MinRankOfSubset(const topk::LinearFunction& f,
                          const std::vector<int32_t>& subset,
                          const data::ColumnBlocks& full_blocks,
                          size_t* full_scan_fallbacks = nullptr) const;

  /// Approximate heap footprint in bytes: the band dataset, its id map,
  /// the band's columnar mirror, and the 2D band sweep. The service layer's
  /// eviction budget reads this; it is an estimate, not an allocation
  /// census.
  size_t ApproxBytes() const;

 private:
  CandidateIndex(const data::Dataset& full, size_t k, data::Dataset band,
                 std::vector<int32_t> band_ids);

  const data::Dataset* full_;
  size_t k_;
  data::Dataset band_;
  std::vector<int32_t> band_ids_;
  std::unique_ptr<data::ColumnBlocks> band_blocks_;
  std::unique_ptr<AngularSweep> band_sweep_;  // d == 2 only
};

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_CANDIDATE_INDEX_H_
