#include "core/find_ranges.h"

#include <algorithm>
#include <memory>

#include "core/candidate_index.h"
#include "core/sweep.h"
#include "geometry/angles.h"

namespace rrr {
namespace core {

Result<std::vector<ItemRange>> FindRanges(const data::Dataset& dataset,
                                          size_t k, const ExecContext& ctx,
                                          const AngularSweep* sweep,
                                          const CandidateIndex* candidates) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (dataset.dims() != 2) {
    return Status::InvalidArgument("FindRanges requires a 2D dataset");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t n = dataset.size();
  if (n == 0) return std::vector<ItemRange>();
  const size_t kk = std::min(k, n);

  // The sweep runs over the k-skyband when an index is available: the
  // boundary exchanges are identical (only band members ever cross the
  // top-k border, at the same exchange angles), so the per-item ranges
  // match the full sweep bit for bit while E shrinks to O(band^2).
  const data::Dataset* work = &dataset;
  if (candidates != nullptr) {
    RRR_CHECK(candidates->full_dataset() == &dataset)
        << "CandidateIndex built over a different dataset";
    RRR_CHECK(candidates->k() >= kk)
        << "CandidateIndex band too small for this k";
    RRR_CHECK(candidates->band_sweep() != nullptr)
        << "CandidateIndex over 2D data is missing its band sweep";
    work = &candidates->band();
    sweep = candidates->band_sweep();
  }
  std::unique_ptr<AngularSweep> own_sweep;
  if (sweep == nullptr) {
    own_sweep = std::make_unique<AngularSweep>(dataset);
    sweep = own_sweep.get();
  }
  const size_t m = work->size();  // kk <= m: the band contains every top-k
  std::vector<ItemRange> local(m);
  const auto& order = sweep->InitialOrder();

  // Items in the top-k at theta = 0 start their range there. `entered`
  // holds the angle of each item's latest entry into the top-k.
  std::vector<char> in_topk_now(m, 0);
  std::vector<double> entered(m, -1.0);
  for (size_t i = 0; i < kk; ++i) {
    const auto id = static_cast<size_t>(order[i]);
    local[id].in_topk = true;
    local[id].begin = 0.0;
    in_topk_now[id] = 1;
    entered[id] = 0.0;
  }

  PreemptionGate gate(ctx, 1024);
  if (kk < m) {
    sweep->Run([&](const SweepEvent& ev) {
      if (gate.Preempted()) return false;
      if (ev.upper_position == kk) {
        // ev.item_up enters the top-k, ev.item_down leaves it.
        const auto up = static_cast<size_t>(ev.item_up);
        const auto down = static_cast<size_t>(ev.item_down);
        if (!local[up].in_topk) {
          local[up].in_topk = true;
          local[up].begin = ev.angle;
        }
        in_topk_now[up] = 1;
        entered[up] = ev.angle;
        if (entered[down] == ev.angle) {
          // Entered and left at the same angle: a transient visitor of an
          // equal-angle tie cascade, a bookkeeping state no function
          // realizes. The visit leaves the range as it was: none on a first
          // visit (so a zero-width phantom interval can never be picked as
          // a cover), the earlier exit otherwise.
          if (local[down].begin == ev.angle) local[down].in_topk = false;
        } else {
          local[down].end = ev.angle;  // overwritten on re-entry/re-exit
        }
        in_topk_now[down] = 0;
      }
      return true;
    });
  }
  RRR_RETURN_IF_ERROR(gate.status());

  // Items still in the top-k at theta = pi/2 extend to the end.
  for (size_t id = 0; id < m; ++id) {
    if (in_topk_now[id]) local[id].end = geometry::kHalfPi;
  }

  if (candidates == nullptr) return local;
  // Scatter band-local results back to original ids; pruned items keep the
  // default never-in-top-k range, which is exactly what the full sweep
  // reports for them.
  std::vector<ItemRange> ranges(n);
  for (size_t r = 0; r < m; ++r) {
    ranges[static_cast<size_t>(candidates->band_ids()[r])] = local[r];
  }
  return ranges;
}

}  // namespace core
}  // namespace rrr
