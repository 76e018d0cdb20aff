#ifndef RRR_CORE_KSET_SAMPLER_H_
#define RRR_CORE_KSET_SAMPLER_H_

#include <cstdint>

#include "common/exec_context.h"
#include "common/result.h"
#include "core/kset.h"
#include "data/column_blocks.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

class CandidateIndex;

/// Tuning for SampleKSets (the paper's termination condition c and seed).
struct KSetSamplerOptions {
  uint64_t seed = 13;
  /// Stop after this many consecutive samples that discover nothing new
  /// (the paper's experiments use 100).
  size_t termination_count = 100;
  /// Absolute cap on drawn samples (safety valve).
  size_t max_samples = 50'000'000;
  /// Worker threads for the per-sample top-k evaluations: 0 = hardware
  /// concurrency, 1 = serial. Ranking functions are always drawn from the
  /// single seeded Rng in sequence and their k-sets are recorded in draw
  /// order, so the sampled collection (and samples_drawn) is identical for
  /// every thread count; only the top-k scans fan out.
  size_t threads = 0;
};

/// Output of SampleKSets.
struct KSetSampleResult {
  KSetCollection ksets;
  /// Total ranking functions drawn.
  size_t samples_drawn = 0;
};

/// \brief Algorithm 4 (K-SETr): randomized k-set discovery via the coupon
/// collector's scheme.
///
/// Repeatedly draws a uniform ranking function (Marsaglia sampling on the
/// first orthant of the unit sphere) and records its top-k as a k-set,
/// stopping after `termination_count` consecutive non-discoveries. May miss
/// k-sets whose function-space cells are tiny; the hitting set computed from
/// the sample is therefore a lower bound certificate, not a proof (Section
/// 5.2.1 discusses why misses are rare and benign in practice).
///
/// Cost is O(samples * n (d + log k)) with the full-dataset scan; a
/// candidate index (below) shrinks n to its k-skyband.
///
/// Fails with InvalidArgument for k == 0 or an empty dataset; returns
/// Cancelled/DeadlineExceeded (no partial collection) when `ctx` preempts
/// the draw loop, which is checked between batches of 4 * threads samples.
///
/// `candidates` (may be null) answers every per-sample top-k with a kernel
/// scan over its k-skyband mirror (core/candidate_index.h); the sampled
/// collection is bit-identical either way (the sampler's invariance
/// contract). It must be built over `dataset` with candidates->k() >= k.
/// `blocks` is the columnar mirror of `dataset` the full-dataset scans run
/// over (unused when `candidates` is given); a null mirror is built
/// (serially) for this call.
Result<KSetSampleResult> SampleKSets(const data::Dataset& dataset, size_t k,
                                     const KSetSamplerOptions& options = {},
                                     const ExecContext& ctx = {},
                                     const CandidateIndex* candidates =
                                         nullptr,
                                     const data::ColumnBlocks* blocks =
                                         nullptr);

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_KSET_SAMPLER_H_
