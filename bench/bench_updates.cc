// Dynamic-data layer: incremental artifact maintenance vs rebuilding from
// scratch on every update.
//
// Workloads (per n, d = 3):
//   append_row     one-row Insert, averaged over a stream of inserts —
//                  incremental path: memcpy'd mirror tiles + O(n d)
//                  count extension vs a cold PreparedDataset (O(n d)
//                  transpose at publication) + first-query O(n^2 d) counts
//   append_batch   64-row BatchAppend, same comparison
//   delete_row     one-row Delete — masked mirror + localized recounts vs
//                  the cold rebuild
//   query_after    Solve(k) immediately after an append, measuring what
//                  the carried-forward artifacts save the first query
//
// Both sides produce bit-identical artifacts (pinned by
// tests/core/dynamic_equivalence_test.cc); this driver measures only the
// time. The committed BENCH_updates.json is this driver's output on the
// 1-CPU CI container — wall-clock ratios there understate the parallel
// rebuild cost a multi-core host would pay.
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/dataset_updates.h"
#include "core/engine.h"
#include "data/generators.h"
#include "figure_util.h"

namespace {

using namespace rrr;

std::vector<std::vector<double>> ToRows(const data::Dataset& ds) {
  std::vector<std::vector<double>> rows;
  rows.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    const double* r = ds.row(i);
    rows.emplace_back(r, r + ds.dims());
  }
  return rows;
}

/// Forces the always-outranker counts the dynamic layer maintains to
/// exist, the way a first query would (the columnar mirror always does).
void MaterializeArtifacts(const core::PreparedDataset& prepared, size_t k) {
  RRR_CHECK(prepared.SharedCandidateIndex(k, 1).ok());
}

core::DynamicDatasetOptions DynOptions(bool incremental) {
  core::DynamicDatasetOptions options;
  options.incremental_artifacts = incremental;
  // Force the candidate build at bench sizes so the count maintenance is
  // actually exercised (the default heuristics decline below 4096 rows).
  options.prepared.candidate.min_dataset_size = 0;
  options.prepared.candidate.precheck_sample = 0;
  options.prepared.candidate.budget_slack_per_tuple = 0;
  options.prepared.candidate.max_band_fraction = 1.0;
  return options;
}

/// One update stream: `updates` ops against a DynamicDataset. With
/// `incremental`, artifacts carry forward; without, every published
/// version starts cold and `rematerialize` pays the rebuild a first query
/// would (the from-scratch baseline).
double RunStream(const data::Dataset& initial, size_t updates,
                 size_t batch_rows, bool deletes, bool incremental,
                 size_t k) {
  Result<std::shared_ptr<core::DynamicDataset>> dyn =
      core::DynamicDataset::Create(data::Dataset(initial),
                                   DynOptions(incremental));
  RRR_CHECK(dyn.ok()) << dyn.status().ToString();
  MaterializeArtifacts(*(*dyn)->Snapshot(), k);
  const data::Dataset pool =
      data::GenerateUniform(updates * batch_rows, initial.dims(), 99);
  const std::vector<std::vector<double>> pool_rows = ToRows(pool);

  Stopwatch timer;
  size_t next = 0;
  for (size_t u = 0; u < updates; ++u) {
    if (deletes) {
      RRR_CHECK((*dyn)->Delete(static_cast<int32_t>(u % 7)).ok());
    } else if (batch_rows == 1) {
      RRR_CHECK((*dyn)->Insert(pool_rows[next++]).ok());
    } else {
      std::vector<std::vector<double>> batch(
          pool_rows.begin() + static_cast<int64_t>(next),
          pool_rows.begin() + static_cast<int64_t>(next + batch_rows));
      next += batch_rows;
      RRR_CHECK((*dyn)->BatchAppend(batch).ok());
    }
    // The cost a first query pays on this version: nothing when the
    // artifacts carried forward, a full rebuild when they did not.
    MaterializeArtifacts(*(*dyn)->Snapshot(), k);
  }
  return timer.ElapsedSeconds();
}

void Case(const std::string& workload, const data::Dataset& initial,
          size_t updates, size_t batch_rows, bool deletes, size_t k) {
  const double incremental =
      RunStream(initial, updates, batch_rows, deletes, true, k);
  const double rebuild =
      RunStream(initial, updates, batch_rows, deletes, false, k);
  bench::PrintRow(
      {workload, StrFormat("%zu", initial.size()),
       StrFormat("%zu", initial.dims()), StrFormat("%zu", updates),
       StrFormat("%zu", deletes ? 1 : batch_rows),
       StrFormat("%.6f", incremental), StrFormat("%.6f", rebuild),
       StrFormat("%.1f", incremental > 0.0 ? rebuild / incremental : 0.0)});
}

}  // namespace

int main() {
  bench::PrintFigureHeader(
      "updates", "Dynamic updates",
      "incremental artifact maintenance vs from-scratch rebuild per "
      "update (d=3, forced candidate counts, mirror carried forward)",
      "workload,n,d,updates,rows_per_update,incremental_sec,rebuild_sec,"
      "speedup");

  const size_t full = bench::FullScale() ? 2 : 1;
  for (size_t n : {size_t{2000} * full, size_t{8000} * full}) {
    const data::Dataset initial = data::GenerateUniform(n, 3, 7);
    const size_t k = 10;
    Case("append_row", initial, 24, 1, false, k);
    Case("append_batch", initial, 12, 64, false, k);
    Case("delete_row", initial, 16, 1, true, k);
  }
  return 0;
}
