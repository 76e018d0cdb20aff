#ifndef RRR_CORE_EVALUATOR_H_
#define RRR_CORE_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "data/column_blocks.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

class AngularSweep;
class CandidateIndex;

/// \brief Exact rank-regret of `subset` over all 2D linear ranking
/// functions: max over theta in [0, pi/2] of the best subset rank
/// (Definition 2 evaluated exactly). One angular sweep, O(E log n).
///
/// It lives in core so the engine facade (also core) can audit
/// representatives without a core -> eval dependency cycle. `sweep`
/// optionally reuses a prebuilt AngularSweep over the same dataset
/// (PreparedDataset shares one); `ctx` preempts the sweep with
/// Cancelled/DeadlineExceeded.
Result<int64_t> SweepExactRankRegret2D(const data::Dataset& dataset,
                                       const std::vector<int32_t>& subset,
                                       const ExecContext& ctx = {},
                                       const AngularSweep* sweep = nullptr);

/// Options for the sampled estimator.
struct SampledRegretOptions {
  /// Ranking functions drawn uniformly from the first orthant of the unit
  /// sphere (the paper's Section 6.1 uses 10,000).
  size_t num_functions = 10000;
  uint64_t seed = 23;
  /// Worker threads for the per-function rank scans: 0 = hardware
  /// concurrency, 1 = serial. The estimate is a max over draws from one
  /// seeded Rng, so the result is identical for every thread count.
  size_t threads = 0;
};

/// Observability for one SampledRankRegretEstimate run. The fallback count
/// is deterministic (a pure function of data, subset, and seed), so it is
/// identical for every thread count.
struct SampledRegretStats {
  /// Ranking functions whose rank was answered by a k-skyband scan.
  size_t skyband_scans = 0;
  /// Functions whose rank exceeded the band parameter and fell back to a
  /// full-dataset scan (0 when no CandidateIndex was supplied — every scan
  /// is then a full scan and neither counter moves).
  size_t full_scan_fallbacks = 0;
};

/// \brief Monte-Carlo lower bound on the rank-regret of `subset`: the max
/// over sampled functions of the subset's best rank (the paper's
/// measurement protocol for d > 2). `ctx` preempts between scan batches.
///
/// `candidates` (may be null) answers each per-function rank scan over its
/// k-skyband whenever the rank is <= candidates->k() — the common case for
/// representatives — falling back to a full scan otherwise, so the estimate
/// is bit-identical with and without the index. `stats` (may be null)
/// receives the band/fallback attribution. `blocks` is the columnar mirror
/// of `dataset` the full-dataset rank scans run over — the whole workload
/// without an index, the fallbacks with one; a null mirror is built
/// (serially) for this call.
Result<int64_t> SampledRankRegretEstimate(
    const data::Dataset& dataset, const std::vector<int32_t>& subset,
    const SampledRegretOptions& options = {}, const ExecContext& ctx = {},
    const CandidateIndex* candidates = nullptr,
    SampledRegretStats* stats = nullptr,
    const data::ColumnBlocks* blocks = nullptr);

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_EVALUATOR_H_
