#ifndef RRR_EVAL_RANK_REGRET_H_
#define RRR_EVAL_RANK_REGRET_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/column_blocks.h"
#include "data/dataset.h"

namespace rrr {
namespace core {
class CandidateIndex;
}  // namespace core

namespace eval {

/// \brief Exact rank-regret of `subset` over all 2D linear ranking
/// functions: max over theta in [0, pi/2] of the best subset rank
/// (Definition 2 evaluated exactly).
///
/// One angular sweep, tracking the subset's best position incrementally
/// across every rank exchange. O(E log n).
Result<int64_t> ExactRankRegret2D(const data::Dataset& dataset,
                                  const std::vector<int32_t>& subset);

/// Options for the sampled multi-dimensional estimator.
struct SampledRankRegretOptions {
  /// Ranking functions drawn uniformly from the first orthant of the unit
  /// sphere (the paper's Section 6.1 uses 10,000).
  size_t num_functions = 10000;
  uint64_t seed = 23;
  /// Worker threads for the per-function rank scans: 0 = hardware
  /// concurrency, 1 = serial. The estimate is a max over draws from one
  /// seeded Rng, so the result is identical for every thread count.
  size_t threads = 0;
};

/// \brief Monte-Carlo lower bound on the rank-regret of `subset`: the max
/// over sampled functions of the subset's best rank.
///
/// This is the paper's measurement protocol for d > 2 (exact evaluation
/// would need the full dual arrangement). A reported value r means some
/// sampled function had regret r; the true max can only be larger.
Result<int64_t> SampledRankRegret(
    const data::Dataset& dataset, const std::vector<int32_t>& subset,
    const SampledRankRegretOptions& options = {});

/// Outcome of an exact bounded-rank-regret decision (any dimension).
struct RankRegretCertificate {
  /// True iff RR_L(subset) <= k over ALL linear ranking functions.
  bool within_k = false;
  /// When within_k is false: a concrete weight vector whose entire top-k
  /// avoids the subset (a user the subset fails), plus that user's best
  /// subset rank. Empty/0 when within_k.
  std::vector<double> witness_weights;
  int64_t witness_rank = 0;
};

/// \brief Exact decision "is the rank-regret of `subset` at most k?" in any
/// dimension, via complete k-set enumeration (Algorithm 6 + Lemma 5):
/// the answer is yes iff `subset` hits every k-set.
///
/// Exponential-ish in practice (the enumeration solves O(|S| k n) LPs), so
/// intended for small n — ground truth for tests and audits of the sampled
/// estimator. When the answer is no, the witness weight vector comes from
/// the separation LP of the missed k-set, so callers can show the exact
/// "unhappy user".
///
/// `threads` fans the per-k-set hit checks out (0 = hardware concurrency,
/// 1 = serial); the certificate — including which missed k-set supplies
/// the witness — is identical for every thread count, because the first
/// miss in enumeration order is always the one certified.
///
/// `candidates` (may be null) hands the underlying k-set enumeration the
/// shared k-skyband index — e.g. PreparedDataset::SharedCandidateIndex(k)
/// — shrinking its swap loops from n to the band with an identical
/// certificate (see EnumerateKSetsGraph). `blocks` is the columnar mirror
/// of `dataset` — e.g. PreparedDataset::column_blocks() — that the
/// enumeration's seed scans and the witness rank scan run over; a null
/// mirror is built (serially) for this call.
Result<RankRegretCertificate> ExactRankRegretWithinK(
    const data::Dataset& dataset, const std::vector<int32_t>& subset,
    size_t k, size_t threads = 0,
    const core::CandidateIndex* candidates = nullptr,
    const data::ColumnBlocks* blocks = nullptr);

}  // namespace eval
}  // namespace rrr

#endif  // RRR_EVAL_RANK_REGRET_H_
