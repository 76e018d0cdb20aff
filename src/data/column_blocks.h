#ifndef RRR_DATA_COLUMN_BLOCKS_H_
#define RRR_DATA_COLUMN_BLOCKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "data/dataset.h"

namespace rrr {
namespace data {

/// \brief Immutable column-major mirror of a Dataset, tiled in blocks of
/// kBlockRows rows — the data layout behind topk/score_kernel.h.
///
/// The row-major Dataset is the canonical storage (algorithms that walk one
/// tuple's attributes stay on it); ColumnBlocks is a derived, read-only view
/// optimized for the opposite access pattern: evaluating one linear function
/// over *many* tuples. Each block holds dims() columns of kBlockRows
/// contiguous doubles, so a scoring kernel can vectorize across rows while
/// accumulating each row's d terms in exactly the attribute order of the
/// scalar loop — the layout is what makes the kernel's bit-identity
/// contract cheap to keep.
///
/// The final block is zero-padded up to kBlockRows rows; consumers must use
/// block_rows() (or block_mask()) to ignore the padding lanes (their scores
/// are computed and discarded, never surfaced). Lane l of block b always
/// holds source() row b * kBlockRows + l.
///
/// \par Versioned datasets
/// Every version the dynamic-update layer (core/dataset_updates.h)
/// publishes builds its own mirror from scratch: an update already copies
/// all n row-major rows, so the one O(n d) transpose costs the same order.
///
/// Build cost is one O(n d) transpose pass (parallel over blocks,
/// ExecContext-cancellable); PreparedDataset builds the mirror at creation
/// and shares it across every query. The source Dataset must outlive the
/// mirror (block data is copied, but consumers identity-check source()).
class ColumnBlocks {
 public:
  /// Rows per block. 64 keeps a block's column (512 bytes) a small whole
  /// number of cache lines and a d <= 16 block inside L1.
  static constexpr size_t kBlockRows = 64;

  /// Builds the mirror. `threads` follows the library convention
  /// (0 = hardware concurrency, 1 = serial; the mirror is identical for
  /// every thread count); `ctx` can preempt the transpose with
  /// Cancelled/DeadlineExceeded.
  static Result<ColumnBlocks> Build(const Dataset& dataset,
                                    size_t threads = 0,
                                    const ExecContext& ctx = {});

  ColumnBlocks() = default;

  /// Mirrored row count — equals source()->size().
  size_t rows() const { return rows_; }
  size_t dims() const { return d_; }
  bool empty() const { return rows_ == 0; }

  /// Number of kBlockRows-row tiles.
  size_t num_blocks() const { return num_blocks_; }

  /// Rows in block `b`: kBlockRows except possibly for the last block.
  /// Lanes >= block_rows(b) are zero padding.
  size_t block_rows(size_t b) const {
    return b + 1 < num_blocks_ ? kBlockRows : rows_ - b * kBlockRows;
  }

  /// Row-lane bitmap of block `b`: bit l set iff lane l holds a row (every
  /// lane below block_rows(b)).
  uint64_t block_mask(size_t b) const {
    const size_t rows = block_rows(b);
    return rows >= 64 ? ~uint64_t{0} : (uint64_t{1} << rows) - 1;
  }

  /// The dims() * kBlockRows doubles of block `b`; column j starts at
  /// offset j * kBlockRows.
  const double* block(size_t b) const {
    return cells_.data() + b * d_ * kBlockRows;
  }

  /// Column j of block b (kBlockRows contiguous doubles, padded).
  const double* column(size_t b, size_t j) const {
    return block(b) + j * kBlockRows;
  }

  /// True when per-block column maxima are available (every non-empty
  /// mirror has them).
  bool has_block_bounds() const { return !maxs_.empty(); }

  /// \brief Per-column maxima of block `b`: dims() doubles, block_max(b)[j]
  /// >= every value of column j in the block's non-padding lanes.
  ///
  /// Scan weights are never negative (LinearFunction checks), so maxima
  /// alone bound every lane score. A column containing NaN has its max
  /// poisoned to +inf, so any upper bound folded from it can never claim a
  /// block is skippable. Consumers: topk/score_kernel.h's BlockUpperBound.
  const double* block_max(size_t b) const { return maxs_.data() + b * d_; }

  /// The dataset this mirror was built from (identity-checked by
  /// consumers that take both).
  const Dataset* source() const { return source_; }

  /// Approximate heap footprint of the mirror in bytes (an eviction-budget
  /// signal, not an allocation census).
  size_t ApproxBytes() const {
    return (cells_.size() + maxs_.size()) * sizeof(double);
  }

 private:
  const Dataset* source_ = nullptr;
  size_t rows_ = 0;
  size_t d_ = 0;
  size_t num_blocks_ = 0;
  /// num_blocks_ * d_ * kBlockRows doubles, zero padded.
  std::vector<double> cells_;
  /// num_blocks_ * d_ doubles: per block, the d_ column maxima.
  std::vector<double> maxs_;
};

}  // namespace data
}  // namespace rrr

#endif  // RRR_DATA_COLUMN_BLOCKS_H_
