#include "core/dataset_updates.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "core/candidate_index.h"

namespace rrr {
namespace core {

namespace {

/// `appended_from` sentinel in PublishNext: this update is a delete.
constexpr size_t kNoAppend = std::numeric_limits<size_t>::max();

/// Locality bound for Delete's count maintenance: a delete only has to
/// recount rows the deleted row saturated (count == cap); past this many
/// recounts the maintenance abandons the counts and the next query
/// rebuilds them from scratch (each recount is an O(n d) early-exit scan,
/// so unbounded recounting could cost more than one rebuild).
constexpr size_t kMaxDeleteRecounts = 8;

}  // namespace

Result<std::vector<uint32_t>> ExtendOutrankerCountsForAppend(
    const data::Dataset& grown, size_t old_rows, size_t cap,
    const std::vector<uint32_t>& old_counts, const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  const size_t n = grown.size();
  const size_t d = grown.dims();
  if (old_rows > n) {
    return Status::InvalidArgument(
        "ExtendOutrankerCountsForAppend: old_rows exceeds the grown size");
  }
  if (old_counts.size() != old_rows) {
    return Status::InvalidArgument(
        "ExtendOutrankerCountsForAppend: counts size mismatches old_rows");
  }
  if (cap == 0) return Status::InvalidArgument("cap must be >= 1");
  const uint32_t capped = static_cast<uint32_t>(std::min(cap, n));

  std::vector<uint32_t> counts(old_counts);
  counts.resize(n, 0);
  for (size_t i = old_rows; i < n; ++i) {
    RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
    const double* i_row = grown.row(i);
    const int32_t i_id = static_cast<int32_t>(i);
    uint32_t mine = 0;
    for (size_t j = 0; j < i; ++j) {
      const double* j_row = grown.row(j);
      const int32_t j_id = static_cast<int32_t>(j);
      // The appended row has the larger id, so it only outranks an earlier
      // row via the strict arm of the predicate — which is why an existing
      // exact count can only grow, never needs recounting.
      if (counts[j] < capped && AlwaysOutranks(i_row, i_id, j_row, j_id, d)) {
        ++counts[j];
      }
      if (mine < capped && AlwaysOutranks(j_row, j_id, i_row, i_id, d)) {
        ++mine;
      }
    }
    counts[i] = mine;
  }
  return counts;
}

Result<ShrinkCountsOutcome> ShrinkOutrankerCountsForDelete(
    const data::Dataset& old_data, size_t deleted_id, size_t cap,
    const std::vector<uint32_t>& old_counts, size_t max_recounts,
    const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  const size_t n = old_data.size();
  const size_t d = old_data.dims();
  if (n < 2) {
    return Status::InvalidArgument(
        "ShrinkOutrankerCountsForDelete: need at least two rows");
  }
  if (deleted_id >= n) {
    return Status::InvalidArgument(
        "ShrinkOutrankerCountsForDelete: deleted_id out of range");
  }
  if (old_counts.size() != n) {
    return Status::InvalidArgument(
        "ShrinkOutrankerCountsForDelete: counts size mismatches the dataset");
  }
  if (cap == 0) return Status::InvalidArgument("cap must be >= 1");
  // Old counts saturate at min(cap, n); the compacted dataset's saturate at
  // min(cap, n - 1) — the value a fresh count over it would use.
  const uint32_t capped_old = static_cast<uint32_t>(std::min(cap, n));
  const uint32_t capped_new = static_cast<uint32_t>(std::min(cap, n - 1));
  const double* deleted_row = old_data.row(deleted_id);
  const int32_t deleted = static_cast<int32_t>(deleted_id);

  ShrinkCountsOutcome out;
  out.maintained = true;
  out.counts.reserve(n - 1);
  for (size_t j = 0; j < n; ++j) {
    if (j == deleted_id) continue;
    if ((j & 255) == 0) RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
    const double* j_row = old_data.row(j);
    const int32_t j_id = static_cast<int32_t>(j);
    uint32_t c = old_counts[j];
    // Survivor pairs keep their relative id order under compaction, so
    // their pairwise relations — and therefore this row's count — change
    // only by the deleted row's own contribution.
    if (AlwaysOutranks(deleted_row, deleted, j_row, j_id, d)) {
      if (c < capped_old) {
        RRR_DCHECK(c > 0) << "a counted outranker vanished from an exact "
                             "count of zero";
        --c;
      } else {
        // Saturated: the true count is only known to be >= capped_old, so
        // losing one outranker forces a recount — early-exited at the new
        // cap, and bounded in number by the locality budget.
        if (out.recounts == max_recounts) {
          out.maintained = false;
          out.counts.clear();
          return out;
        }
        ++out.recounts;
        c = 0;
        for (size_t i = 0; i < n && c < capped_new; ++i) {
          if (i == j || i == deleted_id) continue;
          if (AlwaysOutranks(old_data.row(i), static_cast<int32_t>(i), j_row,
                             j_id, d)) {
            ++c;
          }
        }
      }
    }
    out.counts.push_back(c);
  }
  return out;
}

DynamicDataset::DynamicDataset(
    std::shared_ptr<const PreparedDataset> initial,
    const CandidateIndexOptions& candidate)
    : candidate_options_(candidate), current_(std::move(initial)) {}

Result<std::shared_ptr<DynamicDataset>> DynamicDataset::Create(
    data::Dataset initial, const CandidateIndexOptions& candidate) {
  std::shared_ptr<const PreparedDataset> prepared;
  RRR_ASSIGN_OR_RETURN(prepared,
                       PreparedDataset::Create(std::move(initial), candidate));
  return std::shared_ptr<DynamicDataset>(
      new DynamicDataset(std::move(prepared), candidate));
}

std::shared_ptr<const PreparedDataset> DynamicDataset::Snapshot() const {
  MutexLock lock(mu_);
  return current_;
}

Result<DatasetVersion> DynamicDataset::Insert(const std::vector<double>& row,
                                              const ExecContext& ctx) {
  return BatchAppend({row}, ctx);
}

Result<DatasetVersion> DynamicDataset::BatchAppend(
    const std::vector<std::vector<double>>& rows, const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  MutexLock writer(writer_mu_);
  const std::shared_ptr<const PreparedDataset> base = Snapshot();
  if (rows.empty()) return base->version();
  const size_t d = base->dims();
  for (const std::vector<double>& row : rows) {
    if (row.size() != d) {
      return Status::InvalidArgument("appended row dimension mismatch");
    }
  }
  const size_t old_rows = base->size();
  std::vector<double> cells;
  cells.reserve((old_rows + rows.size()) * d);
  cells.assign(base->dataset().flat(),
               base->dataset().flat() + old_rows * d);
  for (const std::vector<double>& row : rows) {
    cells.insert(cells.end(), row.begin(), row.end());
  }
  return PublishNext(base, std::move(cells), old_rows + rows.size(),
                     old_rows, 0, ctx);
}

Result<DatasetVersion> DynamicDataset::Delete(int32_t id,
                                              const ExecContext& ctx) {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  MutexLock writer(writer_mu_);
  const std::shared_ptr<const PreparedDataset> base = Snapshot();
  const size_t n = base->size();
  if (id < 0 || static_cast<size_t>(id) >= n) {
    return Status::InvalidArgument("delete id out of range");
  }
  if (n == 1) {
    return Status::InvalidArgument(
        "deleting the last row would leave an empty dataset");
  }
  const size_t d = base->dims();
  const size_t deleted = static_cast<size_t>(id);
  const double* flat = base->dataset().flat();
  std::vector<double> cells;
  cells.reserve((n - 1) * d);
  cells.insert(cells.end(), flat, flat + deleted * d);
  cells.insert(cells.end(), flat + (deleted + 1) * d, flat + n * d);
  return PublishNext(base, std::move(cells), n - 1, kNoAppend, deleted, ctx);
}

Result<DatasetVersion> DynamicDataset::PublishNext(
    const std::shared_ptr<const PreparedDataset>& base,
    std::vector<double> cells, size_t new_rows, size_t appended_from,
    size_t deleted_id, const ExecContext& ctx) {
  const size_t d = base->dims();
  data::Dataset grown;
  RRR_ASSIGN_OR_RETURN(
      grown, data::Dataset::FromFlat(std::move(cells), new_rows, d,
                                     base->dataset().column_names()));
  // Fail before any maintenance work: a bad batch must leave the current
  // version untouched, and the predicates below assume finite values.
  RRR_RETURN_IF_ERROR(grown.CheckFinite());

  PreparedDataset::UpdateSeed seed;
  const DatasetVersion version{base->version().origin,
                               base->version().ordinal + 1};
  seed.version = version;

  // Count maintenance is cost-only — the new version answers
  // bit-identically with or without seeded counts — and runs only when
  // some candidate build already paid for the base's counts.
  const std::pair<size_t, std::shared_ptr<const std::vector<uint32_t>>>
      base_counts = base->CandidateCountsSnapshot();
  if (base_counts.first > 0 && base_counts.second != nullptr) {
    if (appended_from != kNoAppend) {
      std::vector<uint32_t> extended;
      RRR_ASSIGN_OR_RETURN(
          extended,
          ExtendOutrankerCountsForAppend(grown, appended_from,
                                         base_counts.first,
                                         *base_counts.second, ctx));
      seed.counts_cap = base_counts.first;
      seed.counts = std::make_shared<const std::vector<uint32_t>>(
          std::move(extended));
    } else {
      ShrinkCountsOutcome shrunk;
      RRR_ASSIGN_OR_RETURN(
          shrunk, ShrinkOutrankerCountsForDelete(
                      base->dataset(), deleted_id, base_counts.first,
                      *base_counts.second, kMaxDeleteRecounts, ctx));
      // Locality bound exceeded: drop the counts; the next candidate build
      // recounts from scratch (full-rebuild fallback).
      if (shrunk.maintained) {
        seed.counts_cap = std::min(base_counts.first, new_rows);
        seed.counts = std::make_shared<const std::vector<uint32_t>>(
            std::move(shrunk.counts));
      }
    }
  }

  std::shared_ptr<const PreparedDataset> next;
  RRR_ASSIGN_OR_RETURN(
      next, PreparedDataset::CreateVersioned(
                std::move(grown), candidate_options_, std::move(seed)));
  {
    MutexLock lock(mu_);
    current_ = std::move(next);
  }
  return version;
}

Result<std::shared_ptr<RrrEngine>> NewDynamicEngine(
    std::shared_ptr<const DynamicDataset> source, EngineOptions options) {
  if (source == nullptr) {
    return Status::InvalidArgument("null DynamicDataset");
  }
  return RrrEngine::CreateDynamic(
      [source]() { return source->Snapshot(); }, std::move(options));
}

}  // namespace core
}  // namespace rrr
