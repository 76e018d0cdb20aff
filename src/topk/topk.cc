#include "topk/topk.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace topk {

std::vector<int32_t> TopK(const data::Dataset& dataset,
                          const LinearFunction& f, size_t k,
                          const data::ColumnBlocks* blocks) {
  if (blocks != nullptr) {
    RRR_DCHECK(blocks->source() == &dataset)
        << "TopK: blocks mirror a different dataset";
    RRR_DCHECK(blocks->rows() == dataset.size() &&
               blocks->dims() == dataset.dims())
        << "TopK: stale column mirror";
    return TopKScan(*blocks, f, k);
  }
  const size_t n = dataset.size();
  k = std::min(k, n);
  if (k == 0) return {};
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) scores[i] = f.Score(dataset.row(i));
  std::vector<int32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  auto better = [&scores](int32_t a, int32_t b) {
    return Outranks(scores[static_cast<size_t>(a)], a,
                    scores[static_cast<size_t>(b)], b);
  };
  if (k < n) {
    std::nth_element(idx.begin(), idx.begin() + static_cast<long>(k - 1),
                     idx.end(), better);
    idx.resize(k);
  }
  std::sort(idx.begin(), idx.end(), better);
  return idx;
}

std::vector<int32_t> TopKSet(const data::Dataset& dataset,
                             const LinearFunction& f, size_t k,
                             const data::ColumnBlocks* blocks) {
  if (blocks != nullptr) {
    RRR_DCHECK(blocks->source() == &dataset)
        << "TopKSet: blocks mirror a different dataset";
    RRR_DCHECK(blocks->rows() == dataset.size() &&
               blocks->dims() == dataset.dims())
        << "TopKSet: stale column mirror";
    return TopKSetScan(*blocks, f, k);
  }
  std::vector<int32_t> ids = TopK(dataset, f, k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace topk
}  // namespace rrr
