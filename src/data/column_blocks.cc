#include "data/column_blocks.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/parallel.h"

namespace rrr {
namespace data {

namespace {

constexpr size_t kBlockRows = ColumnBlocks::kBlockRows;

/// Computes the column maxima of blocks [b_begin, b_end) from the
/// already-transposed cells, over each block's non-padding lanes. A NaN
/// anywhere in a column poisons that column's max to +inf so no upper bound
/// folded from it can justify a skip.
void ComputeMaxima(const std::vector<double>& cells, size_t d, size_t n,
                   size_t b_begin, size_t b_end, std::vector<double>* maxs) {
  for (size_t b = b_begin; b < b_end; ++b) {
    const double* block = cells.data() + b * d * kBlockRows;
    const size_t rows = std::min(kBlockRows, n - b * kBlockRows);
    double* bmax = maxs->data() + b * d;
    for (size_t j = 0; j < d; ++j) {
      const double* col = block + j * kBlockRows;
      double mx = -std::numeric_limits<double>::infinity();
      for (size_t lane = 0; lane < rows; ++lane) {
        const double v = col[lane];
        if (v != v) {
          mx = std::numeric_limits<double>::infinity();
          break;
        }
        if (v > mx) mx = v;
      }
      bmax[j] = mx;
    }
  }
}

}  // namespace

Result<ColumnBlocks> ColumnBlocks::Build(const Dataset& dataset,
                                         size_t threads,
                                         const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  const size_t n = dataset.size();
  const size_t d = dataset.dims();
  ColumnBlocks blocks;
  blocks.source_ = &dataset;
  blocks.rows_ = n;
  blocks.d_ = d;
  if (n == 0) return blocks;
  const size_t num_blocks = (n + kBlockRows - 1) / kBlockRows;
  blocks.num_blocks_ = num_blocks;
  blocks.cells_.assign(num_blocks * d * kBlockRows, 0.0);
  blocks.maxs_.assign(num_blocks * d, 0.0);

  std::vector<double>& cells = blocks.cells_;
  std::atomic<bool> preempted{false};
  ParallelForChunked(
      ResolveThreads(ctx.ThreadsOver(threads)), num_blocks, 8,
      [&](size_t begin, size_t end) {
        if (preempted.load(std::memory_order_relaxed)) return;
        if (!ctx.CheckPreempted().ok()) {
          preempted.store(true, std::memory_order_relaxed);
          return;
        }
        for (size_t b = begin; b < end; ++b) {
          double* out = cells.data() + b * d * kBlockRows;
          const size_t rows =
              b + 1 < num_blocks ? kBlockRows : n - b * kBlockRows;
          for (size_t lane = 0; lane < rows; ++lane) {
            const double* row = dataset.row(b * kBlockRows + lane);
            for (size_t j = 0; j < d; ++j) {
              out[j * kBlockRows + lane] = row[j];
            }
          }
        }
        // Maxima ride the transpose pass while the tiles are cache-hot.
        ComputeMaxima(cells, d, n, begin, end, &blocks.maxs_);
      });
  if (preempted.load()) {
    Status cause = ctx.CheckPreempted();
    if (cause.ok()) cause = Status::Cancelled("column mirror build preempted");
    return cause;
  }
  return blocks;
}

}  // namespace data
}  // namespace rrr
