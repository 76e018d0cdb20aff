#include "core/kset_graph.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "core/candidate_index.h"
#include "lp/separation.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {

Result<KSetCollection> EnumerateKSetsGraph(const data::Dataset& dataset,
                                           size_t k,
                                           const KSetGraphOptions& options,
                                           const ExecContext& ctx,
                                           const CandidateIndex* candidates,
                                           const data::ColumnBlocks* blocks) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  const size_t n = dataset.size();
  const size_t d = dataset.dims();
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (n == 0) return Status::InvalidArgument("empty dataset");
  if (k >= n) {
    return Status::InvalidArgument(
        "k must be < n for k-set enumeration (a k-set needs a non-empty "
        "complement)");
  }
  if (candidates != nullptr) {
    RRR_CHECK(candidates->full_dataset() == &dataset)
        << "CandidateIndex built over a different dataset";
    RRR_CHECK(candidates->k() >= k)
        << "CandidateIndex band too small for this k";
  }
  data::ColumnBlocks own_blocks;
  if (blocks == nullptr) {
    RRR_ASSIGN_OR_RETURN(own_blocks, data::ColumnBlocks::Build(dataset, 1));
    blocks = &own_blocks;
  }
  RRR_CHECK(blocks->source() == &dataset)
      << "EnumerateKSetsGraph: blocks mirror a different dataset";

  // Initial step: the top-k on the first attribute is a k-set under general
  // position (the function with weights e_1, ties id-broken). Tied data can
  // make an axis top-k non-separable, so validate the seed and fall back to
  // the other axes and the diagonal before giving up.
  std::vector<geometry::Vec> seed_functions;
  seed_functions.reserve(d + 1);
  for (size_t axis = 0; axis < d; ++axis) {
    geometry::Vec w(d, 0.0);
    w[axis] = 1.0;
    seed_functions.push_back(std::move(w));
  }
  seed_functions.push_back(geometry::Vec(d, 1.0));
  KSet first;
  bool seeded = false;
  for (const auto& w : seed_functions) {
    KSet candidate;
    const topk::LinearFunction f(w);
    candidate.ids = candidates != nullptr
                        ? candidates->TopKSet(f, k)
                        : topk::TopKSetScan(*blocks, f, k);
    lp::SeparationResult sep;
    RRR_ASSIGN_OR_RETURN(
        sep, lp::FindSeparatingWeights(dataset.flat(), n, d, candidate.ids,
                                       options.lp_tolerance));
    if (sep.separable) {
      first = std::move(candidate);
      seeded = true;
      break;
    }
  }
  if (!seeded) {
    return Status::FailedPrecondition(
        "could not find a separable seed k-set; data too degenerate (ties "
        "at every probed function)");
  }

  KSetCollection found;
  found.Insert(first);
  std::deque<KSet> queue;
  queue.push_back(first);
  PreemptionGate gate(ctx, 64);

  // Swap candidates: only k-skyband members can appear in a separable
  // k-set (see the header), so the BFS inner loop shrinks from n to the
  // band when an index is available. The candidate order is ascending id
  // either way (band_ids are sorted), so the BFS discovery order — and
  // therefore the enumerated collection — is unchanged.
  std::vector<int32_t> swap_pool;
  if (candidates != nullptr) {
    swap_pool = candidates->band_ids();
  } else {
    swap_pool.resize(n);
    std::iota(swap_pool.begin(), swap_pool.end(), 0);
  }

  while (!queue.empty()) {
    const KSet current = queue.front();
    queue.pop_front();
    std::vector<char> inside(n, 0);
    for (int32_t id : current.ids) inside[static_cast<size_t>(id)] = 1;

    for (size_t swap_out = 0; swap_out < current.ids.size(); ++swap_out) {
      for (const int32_t cand : swap_pool) {
        if (inside[static_cast<size_t>(cand)]) continue;
        RRR_RETURN_IF_ERROR(gate.Check());
        KSet next = current;
        next.ids[swap_out] = cand;
        next.Normalize();
        if (found.Contains(next)) continue;

        lp::SeparationResult sep;
        RRR_ASSIGN_OR_RETURN(
            sep, lp::FindSeparatingWeights(dataset.flat(), n, d, next.ids,
                                           options.lp_tolerance));
        if (!sep.separable) continue;
        if (found.size() >= options.max_ksets) {
          return Status::ResourceExhausted(
              "k-set graph enumeration exceeded max_ksets");
        }
        found.Insert(next);
        queue.push_back(std::move(next));
      }
    }
  }
  return found;
}

}  // namespace core
}  // namespace rrr
