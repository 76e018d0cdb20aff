#ifndef RRR_CORE_SWEEP_H_
#define RRR_CORE_SWEEP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

/// \brief An adjacent-rank exchange observed during the angular sweep.
///
/// At `angle` the items at ranks `upper_position` and `upper_position + 1`
/// (1-based; 1 = best) swap. `item_down` held the upper position before the
/// swap, `item_up` the lower one.
///
/// Exchanges sharing one exact angle form a group (a multi-item score tie
/// resolving all at once — e.g. a same-x block reordering at angle 0, or
/// coincident crossings). Orders *between* the group's exchanges are
/// bookkeeping states, not rankings any function realizes; `settled` marks
/// the group's last exchange, after which the maintained order is real
/// again. Consumers that interpret the order as a ranking (regret maxima,
/// k-set snapshots) must act only on settled events; consumers that track
/// incremental position state still apply every event.
struct SweepEvent {
  double angle = 0.0;
  size_t upper_position = 0;
  int32_t item_down = 0;
  int32_t item_up = 0;
  bool settled = true;
};

/// Callback invoked after each exchange is applied; return false to stop
/// the sweep early.
using SweepCallback = std::function<bool(const SweepEvent&)>;

/// \brief 2D angular ray sweep (Section 4): rotates the scoring direction
/// w(theta) = (cos theta, sin theta) from theta = 0 (x-axis) to pi/2
/// (y-axis), maintaining the full ranked order of the dataset and firing a
/// callback at every adjacent-rank exchange.
///
/// This is the shared engine behind FindRanges (Algorithm 1), the 2D k-set
/// enumeration of Section 6, and the exact 2D rank-regret evaluator. Instead
/// of the paper's `visited`-set deduplication of heap events it uses
/// standard stale-event invalidation (an event is dropped unless the pair is
/// still rank-adjacent and in the expected order when popped), which yields
/// the same exchange sequence with a simpler correctness argument.
class AngularSweep {
 public:
  /// The dataset must be 2-dimensional.
  explicit AngularSweep(const data::Dataset& dataset);

  /// Ranking at theta = 0 exactly (score = x, score ties by lower id — the
  /// library-wide tie-break of topk::Outranks), best first. Same-x groups
  /// are reordered for theta > 0 by exchange events fired at angle 0, and
  /// same-y groups snap to id order by events at exactly pi/2, so the
  /// sweep's order agrees with the top-k scans at both endpoint functions
  /// and everywhere in between.
  const std::vector<int32_t>& InitialOrder() const { return initial_order_; }

  /// \brief Runs the sweep, invoking `cb` for each exchange in
  /// non-decreasing angle order.
  ///
  /// Exchanges at equal angles are applied in a deterministic order (heap
  /// order on (angle, upper item id)). Returns the number of exchanges
  /// applied (including the one on which the callback stopped the sweep).
  /// O((n + E) log n): each of the E exchanges costs one heap pop and at
  /// most two pushes. Cannot fail; precondition violations (non-2D data)
  /// abort via RRR_CHECK in the constructor.
  size_t Run(const SweepCallback& cb) const;

  /// \brief Exchange angle of two items: the theta at which a and b score
  /// equally, or a negative value when they never swap in [0, pi/2).
  ///
  /// With a currently outranking b (a.x > b.x, or a.x == b.x with a.id <
  /// b.id), they exchange at tan(theta) = (a.x - b.x) / (b.y - a.y)
  /// provided b.y > a.y; a.x == b.x yields angle 0 (the id tie-break holds
  /// only at the theta = 0 endpoint). Same-y id-tie exchanges at pi/2 are
  /// handled inside Run, which knows the ids.
  static double ExchangeAngle(const double* a, const double* b);

  /// Approximate heap footprint in bytes (the ranked initial order).
  size_t ApproxBytes() const {
    return initial_order_.capacity() * sizeof(int32_t);
  }

 private:
  const data::Dataset& dataset_;
  std::vector<int32_t> initial_order_;
};

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_SWEEP_H_
