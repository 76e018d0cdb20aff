#include "core/rrr2d.h"

#include <algorithm>

#include "core/candidate_index.h"
#include "core/find_ranges.h"
#include "geometry/angles.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {

Result<std::vector<int32_t>> Solve2dRrr(const data::Dataset& dataset,
                                        size_t k,
                                        const Rrr2dOptions& options,
                                        const ExecContext& ctx,
                                        const AngularSweep* sweep,
                                        const CandidateIndex* candidates,
                                        const data::ColumnBlocks* blocks) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  // NaN coordinates make the sweep comparators' ordering undefined (the
  // event heap can cycle); fail loudly instead.
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  data::ColumnBlocks own_blocks;
  if (blocks == nullptr) {
    RRR_ASSIGN_OR_RETURN(own_blocks, data::ColumnBlocks::Build(dataset, 1));
    blocks = &own_blocks;
  }
  RRR_CHECK(blocks->source() == &dataset)
      << "Solve2dRrr: blocks mirror a different dataset";
  std::vector<ItemRange> ranges;
  RRR_ASSIGN_OR_RETURN(ranges,
                       FindRanges(dataset, k, ctx, sweep, candidates));
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());

  std::vector<hitting::Interval> intervals;
  intervals.reserve(ranges.size());
  for (size_t id = 0; id < ranges.size(); ++id) {
    if (!ranges[id].in_topk) continue;
    intervals.push_back(hitting::Interval{ranges[id].begin, ranges[id].end,
                                          static_cast<int32_t>(id)});
  }
  // Every angle has a top-k, so the union of ranges covers [0, pi/2]; a
  // cover failure would indicate a sweep bug, surfaced as a Status.
  std::vector<int32_t> cover;
  RRR_ASSIGN_OR_RETURN(
      cover,
      hitting::CoverLine(intervals, 0.0, geometry::kHalfPi, options.cover));

  // The interval model covers the endpoints with limit semantics; at the
  // exact endpoint functions w = (1, 0) and w = (0, 1) score ties resolve
  // by id instead, so on tie-heavy data the endpoint top-k can differ from
  // the limit top-k (see the AngularSweep docs). Patch the measure-zero
  // gap directly: if no chosen item is top-k at an endpoint, add that
  // endpoint's top-1.
  for (const auto& axis :
       {geometry::Vec{1.0, 0.0}, geometry::Vec{0.0, 1.0}}) {
    const topk::LinearFunction f(axis);
    const std::vector<int32_t> endpoint_topk =
        candidates != nullptr ? candidates->TopK(f, k)
                              : topk::TopKScan(*blocks, f, k);
    const bool hit = std::any_of(
        cover.begin(), cover.end(), [&](int32_t id) {
          return std::find(endpoint_topk.begin(), endpoint_topk.end(), id) !=
                 endpoint_topk.end();
        });
    if (!hit) cover.push_back(endpoint_topk.front());
  }
  std::sort(cover.begin(), cover.end());
  cover.erase(std::unique(cover.begin(), cover.end()), cover.end());
  return cover;
}

}  // namespace core
}  // namespace rrr
