#include "core/kset_sampler.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/random.h"
#include "core/candidate_index.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {

Result<KSetSampleResult> SampleKSets(const data::Dataset& dataset, size_t k,
                                     const KSetSamplerOptions& options,
                                     const ExecContext& ctx,
                                     const CandidateIndex* candidates,
                                     const data::ColumnBlocks* blocks) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  if (candidates != nullptr) {
    RRR_CHECK(candidates->full_dataset() == &dataset)
        << "CandidateIndex built over a different dataset";
    RRR_CHECK(candidates->k() >= std::min(k, dataset.size()))
        << "CandidateIndex band too small for this k";
  }
  data::ColumnBlocks own_blocks;
  if (blocks == nullptr) {
    RRR_ASSIGN_OR_RETURN(own_blocks, data::ColumnBlocks::Build(dataset, 1));
    blocks = &own_blocks;
  }
  RRR_CHECK(blocks->source() == &dataset)
      << "SampleKSets: blocks mirror a different dataset";

  auto top_k_set = [&](const topk::LinearFunction& f) {
    if (candidates != nullptr) return candidates->TopKSet(f, k);
    return topk::TopKSetScan(*blocks, f, k);
  };

  Rng rng(options.seed);
  KSetSampleResult out;
  size_t misses = 0;
  const size_t threads = ResolveThreads(ctx.ThreadsOver(options.threads));
  PreemptionGate gate(ctx, 64);

  if (threads <= 1) {
    // Serial path: evaluate each draw before deciding whether to stop.
    while (misses < options.termination_count &&
           out.samples_drawn < options.max_samples) {
      RRR_RETURN_IF_ERROR(gate.Check());
      ++out.samples_drawn;
      topk::LinearFunction f(
          rng.UnitWeightVector(static_cast<int>(dataset.dims())));
      KSet s;
      s.ids = top_k_set(f);
      if (out.ksets.Insert(std::move(s))) {
        misses = 0;
      } else {
        ++misses;
      }
    }
    return out;
  }

  // Parallel path: draw a batch of functions from the single Rng (cheap,
  // serial — the draw sequence is what determinism rests on), fan the
  // expensive top-k evaluations out, then replay the results in draw order
  // against the coupon-collector termination rule. Batch results past the
  // stopping point are discarded, so the recorded collection matches the
  // serial path sample for sample.
  const size_t batch_size = std::min<size_t>(
      std::max<size_t>(4 * threads, 16), options.termination_count);
  std::vector<topk::LinearFunction> funcs;
  std::vector<std::vector<int32_t>> results;
  while (misses < options.termination_count &&
         out.samples_drawn < options.max_samples) {
    RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
    const size_t batch =
        std::min(batch_size, options.max_samples - out.samples_drawn);
    funcs.clear();
    funcs.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      funcs.emplace_back(
          rng.UnitWeightVector(static_cast<int>(dataset.dims())));
    }
    results.assign(batch, {});
    ParallelFor(threads, batch,
                [&](size_t i) { results[i] = top_k_set(funcs[i]); });
    for (size_t i = 0; i < batch; ++i) {
      ++out.samples_drawn;
      KSet s;
      s.ids = std::move(results[i]);
      if (out.ksets.Insert(std::move(s))) {
        misses = 0;
      } else {
        ++misses;
      }
      if (misses >= options.termination_count) break;
    }
  }
  return out;
}

}  // namespace core
}  // namespace rrr
