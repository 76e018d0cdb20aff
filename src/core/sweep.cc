#include "core/sweep.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "common/logging.h"
#include "geometry/angles.h"

namespace rrr {
namespace core {

namespace {

/// Heap entry: a candidate exchange between `upper` and `lower`, valid only
/// if they are still adjacent in that order when popped.
struct Event {
  double angle;
  int32_t upper;
  int32_t lower;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.angle != b.angle) return a.angle > b.angle;
    if (a.upper != b.upper) return a.upper > b.upper;
    return a.lower > b.lower;
  }
};

}  // namespace

AngularSweep::AngularSweep(const data::Dataset& dataset) : dataset_(dataset) {
  RRR_CHECK(dataset.dims() == 2) << "AngularSweep requires a 2D dataset";
  const size_t n = dataset.size();
  initial_order_.resize(n);
  std::iota(initial_order_.begin(), initial_order_.end(), 0);
  // Order at theta = 0 exactly: score = x, score ties by lower id — the
  // library-wide tie-break (topk::Outranks), so the sweep and the top-k
  // scans agree at the endpoint function w = (1, 0). Same-x groups are then
  // bubbled into the theta > 0 order (y descending) by exchange events at
  // angle 0 during Run.
  const double* rows = dataset.flat();
  std::sort(initial_order_.begin(), initial_order_.end(),
            [rows](int32_t a, int32_t b) {
              const double ax = rows[2 * a], bx = rows[2 * b];
              if (ax != bx) return ax > bx;
              return a < b;
            });
}

double AngularSweep::ExchangeAngle(const double* a, const double* b) {
  // `a` currently outranks `b`. Scores cross where
  // cos(t)*(a.x - b.x) = sin(t)*(b.y - a.y). dx == 0 with dy > 0 is the
  // same-x tie resolved by id at theta = 0: the exchange fires at angle 0
  // (atan2(0, dy)), restoring the y-descending order for every theta > 0.
  const double dx = a[0] - b[0];
  const double dy = b[1] - a[1];
  if (dy <= 0.0 || dx < 0.0) return -1.0;  // b never overtakes a
  return std::atan2(dx, dy);
}

size_t AngularSweep::Run(const SweepCallback& cb) const {
  const size_t n = dataset_.size();
  if (n < 2) return 0;
  const double* rows = dataset_.flat();

  std::vector<int32_t> order = initial_order_;
  std::vector<size_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[static_cast<size_t>(order[i])] = i;

  std::priority_queue<Event, std::vector<Event>, EventLater> heap;
  auto push_pair = [&](size_t upper_idx) {
    const int32_t u = order[upper_idx];
    const int32_t l = order[upper_idx + 1];
    double angle = ExchangeAngle(rows + 2 * u, rows + 2 * l);
    if (angle < 0.0 && u > l && rows[2 * u + 1] == rows[2 * l + 1] &&
        rows[2 * u] > rows[2 * l]) {
      // Same-y pair held in x order but out of id order: their scores tie
      // at exactly theta = pi/2, where the library-wide tie-break (lower id
      // first, topk::Outranks) takes over. Exchange at the endpoint so the
      // sweep's final order matches the top-k scan under w = (0, 1).
      angle = geometry::kHalfPi;
    }
    if (angle >= 0.0) heap.push(Event{angle, u, l});
  };
  for (size_t i = 0; i + 1 < n; ++i) push_pair(i);

  size_t exchanges = 0;
  // rrr-lint: disable(missing-preemption-gate) reason=cancellable through the callback protocol: cb returning false stops the sweep, and every engine-path caller checks its ExecContext inside cb
  while (!heap.empty()) {
    const Event ev = heap.top();
    heap.pop();
    const size_t pu = pos[static_cast<size_t>(ev.upper)];
    const size_t pl = pos[static_cast<size_t>(ev.lower)];
    if (pl != pu + 1) continue;  // stale: the pair is no longer adjacent

    // Apply the exchange.
    std::swap(order[pu], order[pl]);
    pos[static_cast<size_t>(ev.upper)] = pl;
    pos[static_cast<size_t>(ev.lower)] = pu;
    ++exchanges;

    SweepEvent out;
    out.angle = ev.angle;
    out.upper_position = pu + 1;  // 1-based rank of the upper slot
    out.item_down = ev.upper;
    out.item_up = ev.lower;

    // New adjacencies created by the exchange (pushed before the settled
    // peek so same-angle cascade continuations are visible).
    if (pu > 0) push_pair(pu - 1);
    if (pl + 1 < n) push_pair(pl);

    // The event is settled when no valid exchange at this exact angle
    // remains: discard stale same-angle heads (they would be skipped on
    // pop anyway) until a live one or a different angle surfaces.
    out.settled = true;
    while (!heap.empty()) {
      const Event& top = heap.top();
      if (top.angle != ev.angle) break;
      if (pos[static_cast<size_t>(top.lower)] ==
          pos[static_cast<size_t>(top.upper)] + 1) {
        out.settled = false;
        break;
      }
      heap.pop();
    }

    if (!cb(out)) break;
  }
  return exchanges;
}

}  // namespace core
}  // namespace rrr
