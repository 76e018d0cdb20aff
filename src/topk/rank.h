#ifndef RRR_TOPK_RANK_H_
#define RRR_TOPK_RANK_H_

#include <cstdint>
#include <vector>

#include "data/column_blocks.h"
#include "topk/scoring.h"

namespace rrr {
namespace topk {

/// \brief Rank (1-based, 1 = best) of tuple `item` of blocks.source() under
/// `f`; the paper's nabla_f(t). One O(n) outranker count through the
/// blocked scoring kernel (topk/score_kernel.h).
int64_t RankOf(const data::ColumnBlocks& blocks, const LinearFunction& f,
               int32_t item);

/// \brief Minimum rank over `subset` under `f`; the paper's RR_f(X)
/// (Definition 1). Requires a non-empty subset. O(n + |subset|): the best
/// member is picked row-wise from blocks.source(), then ranked by the
/// kernel's outranker count.
int64_t MinRankOfSubset(const data::ColumnBlocks& blocks,
                        const LinearFunction& f,
                        const std::vector<int32_t>& subset);

}  // namespace topk
}  // namespace rrr

#endif  // RRR_TOPK_RANK_H_
