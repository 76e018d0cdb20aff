#ifndef RRR_CORE_KSET_GRAPH_H_
#define RRR_CORE_KSET_GRAPH_H_

#include "common/exec_context.h"
#include "common/result.h"
#include "core/kset.h"
#include "data/column_blocks.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

class CandidateIndex;

/// Tuning for EnumerateKSetsGraph.
struct KSetGraphOptions {
  /// Abort with ResourceExhausted once this many k-sets are found
  /// (safety valve: the collection can be Theta(n^{d-eps}) large).
  size_t max_ksets = 1u << 20;
  /// Positivity tolerance for the separation LP.
  double lp_tolerance = 1e-7;
};

/// \brief Algorithm 6: exact k-set enumeration in any dimension via BFS over
/// the k-set graph (nodes are k-sets; edges join sets sharing k-1 items).
///
/// Starts from the top-k on the first attribute and, per Theorem 7 (the
/// k-set graph is connected), discovers all k-sets by swapping one member at
/// a time and validating candidates with the separation LP of Equation 4.
/// Cost is O(|S| * k * (n-k)) LP solves — faithful to the paper, which notes
/// it "does not scale beyond a few hundred items"; use SampleKSets (K-SETr)
/// for larger inputs.
///
/// Fails with InvalidArgument for k == 0 or k >= n (no hyperplane can leave
/// a proper complement), or ResourceExhausted past options.max_ksets.
/// Returns Cancelled/DeadlineExceeded (no partial collection) when `ctx`
/// preempts the BFS, which is checked before each candidate LP solve.
///
/// `candidates` (may be null; the legacy free-function path passes none and
/// keeps the local full scans) answers the seed top-k queries from the
/// shared skyband index and restricts the swap-candidate loop to the
/// k-skyband. That restriction is exactly output-preserving: a k-set
/// containing a tuple with >= k always-outrankers can never pass the strict
/// separation LP (one of the outrankers is outside the set and scores at
/// least as high under every non-negative weight vector), so the skipped
/// candidates were doomed LP rejections. Must be built over `dataset` with
/// candidates->k() >= k. `blocks` (may be null, must mirror `dataset`)
/// routes the unpruned seed top-k scans through the blocked scoring kernel.
Result<KSetCollection> EnumerateKSetsGraph(
    const data::Dataset& dataset, size_t k,
    const KSetGraphOptions& options = {}, const ExecContext& ctx = {},
    const CandidateIndex* candidates = nullptr,
    const data::ColumnBlocks* blocks = nullptr);

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_KSET_GRAPH_H_
