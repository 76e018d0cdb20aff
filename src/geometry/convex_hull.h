#ifndef RRR_GEOMETRY_CONVEX_HULL_H_
#define RRR_GEOMETRY_CONVEX_HULL_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"

namespace rrr {
namespace geometry {

/// \brief Indices of the vertices of the 2D convex hull of the n x 2
/// row-major matrix `rows`, counter-clockwise starting from the
/// lexicographically smallest point (Andrew's monotone chain).
///
/// Collinear interior points are excluded; duplicate points contribute one
/// vertex. Degenerate inputs (all collinear) return the two extremes, or one
/// index when all points coincide.
std::vector<int32_t> ConvexHull2D(const double* rows, size_t n);

/// \brief The maxima representation for linear ranking functions: all rows
/// that are the unique top-1 of some ranking function with non-negative
/// weights (Section 2 — the order-1 rank-regret representative).
///
/// For each candidate row this solves the separation LP (is {i} a 1-set?);
/// works in any dimension. O(n) LP solves of n constraints each, so intended
/// for small/medium n (tests, examples, ground truth).
///
/// The per-candidate LPs are independent; `threads` fans them out (0 =
/// hardware concurrency; the default 1 stays serial). Candidates are
/// reported in ascending index order for every thread count.
///
/// `certified` (may be null, else size n) marks rows already proven to be
/// maxima by the caller — e.g. a strict top-1 under some probe function
/// with a margin above the LP tolerance, which the scoring kernel finds in
/// one blocked scan (see PreparedDataset::SharedConvexMaxima). Certified
/// rows skip their LP; the output is identical because their LP could only
/// have confirmed what the witness already proves.
///
/// `ctx` is checked once per candidate row; a preempted call returns
/// Cancelled/DeadlineExceeded with no partial output.
Result<std::vector<int32_t>> ConvexMaxima(const double* rows, size_t n,
                                          size_t d, size_t threads = 1,
                                          const std::vector<char>* certified =
                                              nullptr,
                                          const ExecContext& ctx = {});

}  // namespace geometry
}  // namespace rrr

#endif  // RRR_GEOMETRY_CONVEX_HULL_H_
