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
