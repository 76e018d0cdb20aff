#include "eval/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/column_blocks.h"
#include "topk/rank.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace rrr {
namespace eval {

Result<EvaluationReport> Evaluate(const data::Dataset& dataset,
                                  const std::vector<int32_t>& subset,
                                  const EvaluateOptions& options) {
  if (subset.empty()) return Status::InvalidArgument("empty subset");
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.num_functions == 0) {
    return Status::InvalidArgument("need at least one evaluation function");
  }
  for (int32_t id : subset) {
    if (id < 0 || static_cast<size_t>(id) >= dataset.size()) {
      return Status::OutOfRange("subset id out of range");
    }
  }

  // One columnar mirror amortized over num_functions full scans (a rank
  // scan and a max-score scan per function); every per-function number is
  // bit-identical to the legacy row loops.
  Result<data::ColumnBlocks> mirror = data::ColumnBlocks::Build(dataset, 1);
  RRR_CHECK(mirror.ok()) << mirror.status().ToString();
  const data::ColumnBlocks& blocks = *mirror;

  Rng rng(options.seed);
  EvaluationReport report;
  report.size = subset.size();
  int64_t rank_sum = 0;
  size_t hits = 0;
  for (size_t s = 0; s < options.num_functions; ++s) {
    topk::LinearFunction f(
        rng.UnitWeightVector(static_cast<int>(dataset.dims())));
    const int64_t best_rank =
        topk::MinRankOfSubset(blocks, f, subset);
    report.rank_regret = std::max(report.rank_regret, best_rank);
    rank_sum += best_rank;
    if (best_rank <= static_cast<int64_t>(options.k)) ++hits;

    // Same fold as the legacy loop: a 0.0 floor over the row maxima.
    const double best_all = std::max(0.0, topk::MaxScore(blocks, f));
    if (best_all > 0.0) {
      double best_subset = 0.0;
      for (int32_t id : subset) {
        best_subset = std::max(
            best_subset, f.Score(dataset.row(static_cast<size_t>(id))));
      }
      report.regret_ratio = std::max(
          report.regret_ratio, (best_all - best_subset) / best_all);
    }
  }
  report.mean_rank = static_cast<double>(rank_sum) /
                     static_cast<double>(options.num_functions);
  report.topk_hit_rate = static_cast<double>(hits) /
                         static_cast<double>(options.num_functions);
  return report;
}

std::string ToString(const EvaluationReport& report) {
  return StrFormat(
      "size=%zu rank_regret=%lld mean_rank=%.2f ratio=%.4f hit_rate=%.3f",
      report.size, static_cast<long long>(report.rank_regret),
      report.mean_rank, report.regret_ratio, report.topk_hit_rate);
}

}  // namespace eval
}  // namespace rrr
