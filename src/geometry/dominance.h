#ifndef RRR_GEOMETRY_DOMINANCE_H_
#define RRR_GEOMETRY_DOMINANCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rrr {
namespace geometry {

/// \brief True iff row `a` Pareto-dominates row `b`: a >= b on every
/// coordinate and a > b on at least one (all attributes higher-preferred;
/// normalize first for mixed directions).
bool Dominates(const double* a, const double* b, size_t d);

/// \brief Indices of the Pareto-optimal (skyline) rows of the n x d
/// row-major matrix `rows`, in increasing index order.
///
/// The skyline is the maxima representation for monotone ranking functions
/// (Section 2). Uses a sort-based O(n log n) scan for d = 2 and a
/// block-nested-loop for d > 2.
std::vector<int32_t> Skyline(const double* rows, size_t n, size_t d);

/// \brief Indices of the k-skyband: rows dominated by fewer than k other
/// rows, in increasing index order.
///
/// A tuple dominated by >= k others can never rank in the top-k of any
/// monotone — in particular any linear — function, so the k-skyband is a
/// sound search-space prefilter for every RRR algorithm (an optimization
/// the paper leaves implicit). The solvers prune through
/// core::CandidateIndex; this O(n^2 d) scan is the plain-dominance
/// reference the property harness and dominance tests check soundness
/// against. Exact duplicates count as dominators of the higher-indexed copy
/// so the filter composes with the library-wide id tie-break.
std::vector<int32_t> KSkyband(const double* rows, size_t n, size_t d,
                              size_t k);

}  // namespace geometry
}  // namespace rrr

#endif  // RRR_GEOMETRY_DOMINANCE_H_
