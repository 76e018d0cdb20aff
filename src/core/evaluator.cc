#include "core/evaluator.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/candidate_index.h"
#include "core/sweep.h"
#include "topk/rank.h"
#include "topk/scoring.h"

namespace rrr {
namespace core {

Result<int64_t> SweepExactRankRegret2D(const data::Dataset& dataset,
                                       const std::vector<int32_t>& subset,
                                       const ExecContext& ctx,
                                       const AngularSweep* sweep) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (dataset.dims() != 2) {
    return Status::InvalidArgument("ExactRankRegret2D requires 2D data");
  }
  if (subset.empty()) return Status::InvalidArgument("empty subset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  const size_t n = dataset.size();
  std::vector<char> in_subset(n, 0);
  for (int32_t id : subset) {
    if (id < 0 || static_cast<size_t>(id) >= n) {
      return Status::OutOfRange("subset id out of range");
    }
    in_subset[static_cast<size_t>(id)] = 1;
  }

  std::unique_ptr<AngularSweep> own_sweep;
  if (sweep == nullptr) {
    own_sweep = std::make_unique<AngularSweep>(dataset);
    sweep = own_sweep.get();
  }
  const auto& order = sweep->InitialOrder();
  // Positions (0-based) currently held by subset members.
  std::set<size_t> member_positions;
  std::vector<size_t> pos(n);
  for (size_t i = 0; i < n; ++i) {
    pos[static_cast<size_t>(order[i])] = i;
    if (in_subset[static_cast<size_t>(order[i])]) member_positions.insert(i);
  }

  PreemptionGate gate(ctx, 1024);
  int64_t worst = static_cast<int64_t>(*member_positions.begin()) + 1;
  sweep->Run([&](const SweepEvent& ev) {
    if (gate.Preempted()) return false;
    const bool down_in = in_subset[static_cast<size_t>(ev.item_down)] != 0;
    const bool up_in = in_subset[static_cast<size_t>(ev.item_up)] != 0;
    if (down_in != up_in) {
      const size_t upper = ev.upper_position - 1;  // 0-based slot
      if (down_in) {
        // A member moved down one slot.
        member_positions.erase(upper);
        member_positions.insert(upper + 1);
      } else {
        // A member moved up one slot.
        member_positions.erase(upper + 1);
        member_positions.insert(upper);
      }
    }
    // Only settled orders are rankings some function realizes; taking the
    // max inside an equal-angle cascade would overstate the regret on
    // tie-heavy data.
    if (ev.settled) {
      worst = std::max(worst,
                       static_cast<int64_t>(*member_positions.begin()) + 1);
    }
    return true;
  });
  RRR_RETURN_IF_ERROR(gate.status());
  return worst;
}

Result<int64_t> SampledRankRegretEstimate(const data::Dataset& dataset,
                                          const std::vector<int32_t>& subset,
                                          const SampledRegretOptions& options,
                                          const ExecContext& ctx,
                                          const CandidateIndex* candidates,
                                          SampledRegretStats* stats,
                                          const data::ColumnBlocks* blocks) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (subset.empty()) return Status::InvalidArgument("empty subset");
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  for (int32_t id : subset) {
    if (id < 0 || static_cast<size_t>(id) >= dataset.size()) {
      return Status::OutOfRange("subset id out of range");
    }
  }
  if (candidates != nullptr) {
    RRR_CHECK(candidates->full_dataset() == &dataset)
        << "CandidateIndex built over a different dataset";
  }
  data::ColumnBlocks own_blocks;
  if (blocks == nullptr) {
    RRR_ASSIGN_OR_RETURN(own_blocks, data::ColumnBlocks::Build(dataset, 1));
    blocks = &own_blocks;
  }
  RRR_CHECK(blocks->source() == &dataset)
      << "blocks mirror a different dataset";
  SampledRegretStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SampledRegretStats{};

  // One per-function rank scan, over the band when possible. The fallback
  // count is a pure function of (data, subset, seed), so the stats are
  // thread-count invariant along with the estimate itself.
  std::atomic<size_t> fallbacks{0};
  auto min_rank = [&](const topk::LinearFunction& f) {
    if (candidates == nullptr) {
      return topk::MinRankOfSubset(*blocks, f, subset);
    }
    size_t fell_back = 0;
    const int64_t rank =
        candidates->MinRankOfSubset(f, subset, *blocks, &fell_back);
    if (fell_back != 0) fallbacks.fetch_add(1, std::memory_order_relaxed);
    return rank;
  };
  // The draws stay serial (one seeded Rng) and the O(n) rank scans fan
  // out. max() is commutative, so the estimate is identical for every
  // thread count.
  Rng rng(options.seed);
  std::vector<topk::LinearFunction> funcs;
  funcs.reserve(options.num_functions);
  for (size_t s = 0; s < options.num_functions; ++s) {
    funcs.emplace_back(
        rng.UnitWeightVector(static_cast<int>(dataset.dims())));
  }
  std::vector<int64_t> per_chunk_worst;
  Mutex mu;
  std::atomic<bool> preempted{false};
  ParallelForChunked(
      ResolveThreads(ctx.ThreadsOver(options.threads)), funcs.size(), 16,
      [&](size_t begin, size_t end) {
        // One thread runs the whole range as a single chunk, so the gate
        // is pumped per function, not only per chunk.
        PreemptionGate gate(ctx, 64);
        int64_t local = 1;
        for (size_t s = begin; s < end; ++s) {
          if (gate.Preempted()) {
            preempted.store(true, std::memory_order_relaxed);
            return;
          }
          local = std::max(local, min_rank(funcs[s]));
        }
        MutexLock lock(mu);
        per_chunk_worst.push_back(local);
      });
  if (preempted.load()) {
    Status cause = ctx.CheckPreempted();
    if (cause.ok()) cause = Status::Cancelled("evaluation preempted");
    return cause;
  }
  int64_t worst = 1;
  for (int64_t w : per_chunk_worst) worst = std::max(worst, w);
  if (candidates != nullptr) {
    stats->full_scan_fallbacks = fallbacks.load();
    stats->skyband_scans = options.num_functions - stats->full_scan_fallbacks;
  }
  return worst;
}

}  // namespace core
}  // namespace rrr
