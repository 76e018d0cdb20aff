#ifndef RRR_TOPK_TOPK_H_
#define RRR_TOPK_TOPK_H_

#include <cstdint>
#include <vector>

#include "data/column_blocks.h"
#include "data/dataset.h"
#include "topk/scoring.h"

namespace rrr {
namespace topk {

/// \brief Ids of the top-k tuples of `dataset` under `f`, best first.
///
/// k is clamped to the dataset size; deterministic under the library-wide
/// tie order (score desc, id asc). `blocks` (may be null) must be the
/// columnar mirror of `dataset`; when present the scan runs through the
/// blocked scoring kernel's fused TopKScan (topk/score_kernel.h) —
/// bit-identical ids in bit-identical order, without materializing n scores.
/// The legacy row loop (null blocks) is O(n + k log k) via selection.
std::vector<int32_t> TopK(const data::Dataset& dataset,
                          const LinearFunction& f, size_t k,
                          const data::ColumnBlocks* blocks = nullptr);

/// Same ids as TopK but sorted ascending (set semantics) — the natural k-set
/// representation used by the enumeration algorithms. With a mirror it runs
/// the kernel's TopKSetScan, which skips the best-first sort.
std::vector<int32_t> TopKSet(const data::Dataset& dataset,
                             const LinearFunction& f, size_t k,
                             const data::ColumnBlocks* blocks = nullptr);

}  // namespace topk
}  // namespace rrr

#endif  // RRR_TOPK_TOPK_H_
