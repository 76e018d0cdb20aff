#ifndef RRR_CORE_SOLVER_H_
#define RRR_CORE_SOLVER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

/// Algorithm selector for the facade.
enum class Algorithm {
  /// 2DRRR for d == 2; exact convex maxima for k == 1 in higher dimensions
  /// (where MDRC's partition cannot terminate — adjacent 1-sets are
  /// disjoint); MDRC otherwise (the scalable defaults per Section 6).
  kAuto,
  /// Algorithm 2; 2D only.
  k2dRrr,
  /// Algorithm 3 over a K-SETr sample.
  kMdRrr,
  /// Algorithm 5.
  kMdRc,
  /// Exact order-1 representative (Section 2: the convex hull maxima), any
  /// dimension, via skyline prefilter + separation LP per candidate. The
  /// unique optimal solution for k == 1; rejects k > 1.
  kConvexMaxima,
};

/// Human-readable algorithm name ("2DRRR", "MDRRR", ...).
std::string AlgorithmName(Algorithm algorithm);

/// \brief Inverse of AlgorithmName: parses an algorithm selector,
/// case-insensitively, accepting both the canonical names ("2DRRR",
/// "MDRRR", "MDRC", "MAXIMA", "AUTO") and their lower-case CLI spellings.
///
/// Fails with InvalidArgument (naming the accepted spellings) on anything
/// else. Round-trips: ParseAlgorithm(AlgorithmName(a)) == a for every a.
Result<Algorithm> ParseAlgorithm(std::string_view name);

/// Options for FindRankRegretRepresentative.
struct RrrOptions {
  /// Rank budget: the representative must contain a top-k item for every
  /// linear ranking function.
  size_t k = 1;
  Algorithm algorithm = Algorithm::kAuto;
  /// Worker threads for the dispatched algorithm: 0 = hardware concurrency
  /// (the default), 1 = serial. Non-zero values override the `threads`
  /// field of the per-algorithm sub-options below; 0 leaves them as set.
  /// Every algorithm returns an identical representative for every thread
  /// count (parallelism only reorders internal evaluation).
  size_t threads = 0;
  Rrr2dOptions rrr2d;
  MdrrrOptions mdrrr;
  KSetSamplerOptions sampler;
  MdrcOptions mdrc;
};

/// Output of the facade.
struct RrrResult {
  /// Ids of the representative tuples, sorted.
  std::vector<int32_t> representative;
  /// The algorithm that actually ran (kAuto resolved).
  Algorithm algorithm_used = Algorithm::kAuto;
  /// Wall-clock seconds spent inside the algorithm.
  double seconds = 0.0;
};

/// \brief One-call entry point to the library: computes a rank-regret
/// representative of `dataset` for the options' k.
///
/// This is a thin wrapper over a temporary RrrEngine (core/engine.h): it
/// prepares the dataset, runs one query, and discards the engine. Callers
/// issuing more than one query against the same dataset should hold an
/// RrrEngine instead — it shares the prepared artifacts and memoizes
/// results across queries.
///
/// See the per-algorithm headers for the exact guarantees and costs
/// (2DRRR: optimal size / 2k regret, O(n^2 log n); MDRRR: k regret on the
/// sampled k-sets / log-factor size; MDRC: dk regret / small size in
/// practice).
///
/// Fails with InvalidArgument for an empty dataset, k == 0, or an
/// algorithm/dimension mismatch (k2dRrr on d != 2, kConvexMaxima with
/// k > 1); otherwise propagates the dispatched algorithm's Status (e.g.
/// MDRC's ResourceExhausted, or Cancelled/DeadlineExceeded when `ctx`
/// preempts the solve).
Result<RrrResult> FindRankRegretRepresentative(const data::Dataset& dataset,
                                               const RrrOptions& options,
                                               const ExecContext& ctx = {});

/// One oracle probe of the dual binary search (diagnostic trail).
struct DualProbe {
  /// The k this probe solved at.
  size_t k = 0;
  /// Algorithm the probe dispatched to (kAuto resolved — may differ across
  /// probes, e.g. convex maxima at k == 1, MDRC above).
  Algorithm algorithm_used = Algorithm::kAuto;
  /// Wall-clock seconds of this probe.
  double seconds = 0.0;
  /// Size of the probe's representative (0 when the probe failed).
  size_t representative_size = 0;
  /// True when the representative fit the caller's size budget.
  bool feasible = false;
  /// kOk, or kResourceExhausted when the solver's own budget died at this
  /// k (the search then continues upward).
  StatusCode status = StatusCode::kOk;
  /// True when an engine served this probe from its per-(k, algorithm)
  /// result memo (always false through the one-shot free function).
  bool from_cache = false;
};

/// Output of SolveDualProblem.
struct DualResult {
  /// Smallest k for which the solver's representative fit the size budget.
  size_t k = 0;
  std::vector<int32_t> representative;
  Algorithm algorithm_used = Algorithm::kAuto;
  /// Total wall-clock seconds across all probes.
  double seconds = 0.0;
  /// Every oracle probe in execution order, with per-probe timing and the
  /// algorithm it resolved to.
  std::vector<DualProbe> probes;
  /// True when any probe ran degraded (the candidate-index build failed
  /// and the probe fell back to the unpruned scan — results are
  /// bit-identical, only throughput suffers; see Diagnostics::degraded).
  bool degraded = false;
  /// Block-max pruning totals summed over the non-cached probes (see
  /// Diagnostics::blocks_scanned; memo-hit probes did no scanning).
  uint64_t blocks_scanned = 0;
  uint64_t blocks_skipped = 0;
};

/// \brief The dual formulation (Section 2): given a maximum representative
/// size, binary-search the smallest k whose representative fits.
///
/// A thin wrapper over a temporary RrrEngine (core/engine.h), whose
/// prepared artifacts are shared by all O(log n) probes; hold an engine to
/// also share them with subsequent queries.
///
/// Fails with InvalidArgument for max_size == 0 or an empty dataset, and
/// with NotFound when even k = n produces a representative larger than
/// `max_size` (cannot happen for max_size >= 1 with MDRC/2DRRR); oracle
/// ResourceExhausted probes are treated as "too large" and the search
/// continues upward. When *every* probe is exhausted — no k produced any
/// representative at all — the failure is reported as ResourceExhausted
/// (the solver budget, not the size budget, is what failed). Returns
/// Cancelled/DeadlineExceeded when `ctx` preempts the search.
Result<DualResult> SolveDualProblem(const data::Dataset& dataset,
                                    size_t max_size,
                                    const RrrOptions& base_options,
                                    const ExecContext& ctx = {});

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_SOLVER_H_
