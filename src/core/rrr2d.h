#ifndef RRR_CORE_RRR2D_H_
#define RRR_CORE_RRR2D_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "data/column_blocks.h"
#include "data/dataset.h"
#include "hitting/interval_cover.h"

namespace rrr {
namespace core {

class AngularSweep;
class CandidateIndex;

/// Tuning for Solve2dRrr.
struct Rrr2dOptions {
  /// Interval-cover strategy. kSweep (default) is provably optimal in
  /// output size (realizing Theorem 3); kGreedyMaxCoverage follows the
  /// paper's Algorithm 2 pseudocode.
  hitting::CoverStrategy cover = hitting::CoverStrategy::kSweep;
};

/// \brief Algorithm 2 (2DRRR): computes a rank-regret representative of a 2D
/// dataset.
///
/// Guarantees (Theorems 2-4): output size <= the optimal RRR size for the
/// requested k, and every linear ranking function has some output item of
/// rank <= 2k. In practice (Section 6.2) the measured rank-regret is almost
/// always <= k. Runs in O(n^2 log n).
///
/// Fails with InvalidArgument unless dims == 2, k >= 1, and the dataset is
/// non-empty; propagates any Status from FindRanges or the interval cover.
/// Returns Cancelled/DeadlineExceeded (no partial output) when `ctx`
/// preempts the underlying sweep. `sweep` optionally reuses a prebuilt
/// AngularSweep over the same dataset (see FindRanges). `candidates` (may
/// be null) runs the sweep and the endpoint top-k patches over the
/// k-skyband — bit-identical output, O(band^2) instead of O(n^2) events
/// (see FindRanges); takes precedence over `sweep`. `blocks` is the
/// columnar mirror of `dataset` the unpruned endpoint top-k patches scan;
/// a null mirror is built (serially) for this call.
Result<std::vector<int32_t>> Solve2dRrr(const data::Dataset& dataset,
                                        size_t k,
                                        const Rrr2dOptions& options = {},
                                        const ExecContext& ctx = {},
                                        const AngularSweep* sweep = nullptr,
                                        const CandidateIndex* candidates =
                                            nullptr,
                                        const data::ColumnBlocks* blocks =
                                            nullptr);

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_RRR2D_H_
