#include "topk/rank.h"

#include "common/logging.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace topk {

// Row `item` never outranks its own (score, item) pair, so neither count
// below needs to exclude it.

int64_t RankOf(const data::ColumnBlocks& blocks, const LinearFunction& f,
               int32_t item) {
  const data::Dataset& dataset = *blocks.source();
  RRR_CHECK(item >= 0 && static_cast<size_t>(item) < dataset.size())
      << "RankOf: item out of range";
  const double s = f.Score(dataset.row(static_cast<size_t>(item)));
  return 1 + CountOutranking(blocks, f, s, item);
}

int64_t MinRankOfSubset(const data::ColumnBlocks& blocks,
                        const LinearFunction& f,
                        const std::vector<int32_t>& subset) {
  RRR_CHECK(!subset.empty()) << "MinRankOfSubset: empty subset";
  const data::Dataset& dataset = *blocks.source();
  // Best member under the tie-broken order (subset-sized, stays row-wise).
  int32_t best = subset[0];
  double best_score = f.Score(dataset.row(static_cast<size_t>(best)));
  for (size_t i = 1; i < subset.size(); ++i) {
    const int32_t t = subset[i];
    const double s = f.Score(dataset.row(static_cast<size_t>(t)));
    if (Outranks(s, t, best_score, best)) {
      best = t;
      best_score = s;
    }
  }
  return 1 + CountOutranking(blocks, f, best_score, best);
}

}  // namespace topk
}  // namespace rrr
