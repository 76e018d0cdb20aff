#include "geometry/convex_hull.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "lp/separation.h"

namespace rrr {
namespace geometry {

namespace {

/// Twice the signed area of triangle (o, a, b); positive for a left turn.
double Cross(const double* rows, int32_t o, int32_t a, int32_t b) {
  const double ox = rows[2 * o], oy = rows[2 * o + 1];
  return (rows[2 * a] - ox) * (rows[2 * b + 1] - oy) -
         (rows[2 * a + 1] - oy) * (rows[2 * b] - ox);
}

}  // namespace

std::vector<int32_t> ConvexHull2D(const double* rows, size_t n) {
  RRR_CHECK(rows != nullptr || n == 0) << "ConvexHull2D: null rows";
  if (n == 0) return {};
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    if (rows[2 * a] != rows[2 * b]) return rows[2 * a] < rows[2 * b];
    if (rows[2 * a + 1] != rows[2 * b + 1]) {
      return rows[2 * a + 1] < rows[2 * b + 1];
    }
    return a < b;
  });
  // Drop duplicate coordinates (keep lowest index, which sorts first).
  order.erase(std::unique(order.begin(), order.end(),
                          [&](int32_t a, int32_t b) {
                            return rows[2 * a] == rows[2 * b] &&
                                   rows[2 * a + 1] == rows[2 * b + 1];
                          }),
              order.end());
  const size_t m = order.size();
  if (m <= 2) return order;

  std::vector<int32_t> hull(2 * m);
  size_t h = 0;
  // Lower chain.
  for (size_t i = 0; i < m; ++i) {
    while (h >= 2 && Cross(rows, hull[h - 2], hull[h - 1], order[i]) <= 0) {
      --h;
    }
    hull[h++] = order[i];
  }
  // Upper chain.
  const size_t lower_size = h + 1;
  for (size_t i = m - 1; i-- > 0;) {
    while (h >= lower_size &&
           Cross(rows, hull[h - 2], hull[h - 1], order[i]) <= 0) {
      --h;
    }
    hull[h++] = order[i];
  }
  hull.resize(h - 1);  // last point equals the first
  return hull;
}

Result<std::vector<int32_t>> ConvexMaxima(const double* rows, size_t n,
                                          size_t d, size_t threads,
                                          const std::vector<char>* certified,
                                          const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (rows == nullptr) return Status::InvalidArgument("null rows");
  if (certified != nullptr && certified->size() != n) {
    return Status::InvalidArgument("certified mask size != n");
  }
  std::vector<int32_t> maxima;
  if (n == 0) return maxima;
  if (n == 1) return std::vector<int32_t>{0};
  // One independent separation LP per candidate; flags keep the output in
  // ascending index order regardless of which thread ran which candidate.
  // Caller-certified rows are maxima by witness and skip their LP.
  std::vector<char> is_maximum(n, 0);
  std::vector<Status> errors(n);
  std::atomic<bool> preempted{false};
  ParallelFor(ResolveThreads(threads), n, [&](size_t i) {
    // One preemption point per row: each costs up to one O(n d) LP.
    if (preempted.load(std::memory_order_relaxed)) return;
    if (!ctx.CheckPreempted().ok()) {
      preempted.store(true, std::memory_order_relaxed);
      return;
    }
    if (certified != nullptr && (*certified)[i] != 0) {
      is_maximum[i] = 1;
      return;
    }
    Result<lp::SeparationResult> sep = lp::FindSeparatingWeights(
        rows, n, d, {static_cast<int32_t>(i)});
    if (!sep.ok()) {
      errors[i] = sep.status();
      return;
    }
    if (sep->separable) is_maximum[i] = 1;
  });
  if (preempted.load()) {
    Status cause = ctx.CheckPreempted();
    if (cause.ok()) cause = Status::Cancelled("convex maxima preempted");
    return cause;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!errors[i].ok()) return errors[i];
    if (is_maximum[i]) maxima.push_back(static_cast<int32_t>(i));
  }
  return maxima;
}

}  // namespace geometry
}  // namespace rrr
