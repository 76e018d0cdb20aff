#include "eval/rank_regret.h"

#include <unordered_set>

#include "common/parallel.h"
#include "core/kset_graph.h"
#include "lp/separation.h"
#include "topk/rank.h"
#include "topk/scoring.h"

namespace rrr {
namespace eval {

Result<RankRegretCertificate> ExactRankRegretWithinK(
    const data::Dataset& dataset, const std::vector<int32_t>& subset,
    size_t k, size_t threads, const core::CandidateIndex* candidates,
    const data::ColumnBlocks* blocks) {
  if (subset.empty()) return Status::InvalidArgument("empty subset");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t n = dataset.size();
  std::unordered_set<int32_t> members;
  for (int32_t id : subset) {
    if (id < 0 || static_cast<size_t>(id) >= n) {
      return Status::OutOfRange("subset id out of range");
    }
    members.insert(id);
  }

  RankRegretCertificate cert;
  if (k >= n) {  // every tuple is top-n for every function
    cert.within_k = true;
    return cert;
  }

  data::ColumnBlocks own_blocks;
  if (blocks == nullptr) {
    RRR_ASSIGN_OR_RETURN(own_blocks, data::ColumnBlocks::Build(dataset, 1));
    blocks = &own_blocks;
  }
  core::KSetCollection ksets;
  RRR_ASSIGN_OR_RETURN(
      ksets,
      core::EnumerateKSetsGraph(dataset, k, {}, {}, candidates, blocks));
  const std::vector<core::KSet>& sets = ksets.sets();

  // Hit checks are independent per k-set; fan them out, then certify the
  // first miss in enumeration order (so the witness does not depend on the
  // thread count).
  std::vector<char> hit(sets.size(), 0);
  ParallelForChunked(
      ResolveThreads(threads), sets.size(), 8,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          for (int32_t id : sets[i].ids) {
            if (members.count(id) != 0) {
              hit[i] = 1;
              break;
            }
          }
        }
      });
  for (size_t i = 0; i < sets.size(); ++i) {
    if (hit[i]) continue;
    // Missed k-set: its separating weights realize a function whose whole
    // top-k avoids the subset (Lemma 5), i.e. regret > k there.
    lp::SeparationResult sep;
    RRR_ASSIGN_OR_RETURN(
        sep, lp::FindSeparatingWeights(dataset.flat(), n, dataset.dims(),
                                       sets[i].ids));
    if (!sep.separable) {
      return Status::Internal("enumerated k-set failed re-separation");
    }
    cert.within_k = false;
    cert.witness_weights = sep.weights;
    cert.witness_rank = topk::MinRankOfSubset(
        *blocks, topk::LinearFunction(sep.weights), subset);
    return cert;
  }
  cert.within_k = true;
  return cert;
}

}  // namespace eval
}  // namespace rrr
