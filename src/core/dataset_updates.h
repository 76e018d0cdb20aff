#ifndef RRR_CORE_DATASET_UPDATES_H_
#define RRR_CORE_DATASET_UPDATES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/version.h"
#include "core/engine.h"
#include "core/prepared_dataset.h"
#include "data/dataset.h"

namespace rrr {
namespace core {

/// \brief Incremental always-outranker counts for an append: extends
/// `old_counts` (counts over the first `old_rows` rows of `grown`, capped
/// at `cap` — the CandidateIndex::CountAlwaysOutrankers contract) to cover
/// all of `grown`.
///
/// Appended rows take the largest ids, so an appended row can only outrank
/// an existing one by STRICT coordinate dominance (the weak-dominance arm
/// of AlwaysOutranks needs the smaller id) — each existing row's count
/// either stays exact or saturates at `cap`, never needs a recount. Each
/// appended row's own count is computed against every earlier row. Output
/// is bit-identical to a fresh CountAlwaysOutrankers over `grown`; cost is
/// O(appended * n * d) instead of O(n^2 d).
Result<std::vector<uint32_t>> ExtendOutrankerCountsForAppend(
    const data::Dataset& grown, size_t old_rows, size_t cap,
    const std::vector<uint32_t>& old_counts, const ExecContext& ctx = {});

/// Outcome of ShrinkOutrankerCountsForDelete. `maintained` is false when
/// the locality bound was exceeded — `counts` is then empty and the caller
/// must fall back to a full rebuild.
struct ShrinkCountsOutcome {
  bool maintained = false;
  /// Counts indexed by post-delete compacted id (old ids above the deleted
  /// row shift down by one), capped at the same `cap`.
  std::vector<uint32_t> counts;
  /// Saturated rows that needed an O(n d) early-exit recount.
  size_t recounts = 0;
};

/// \brief Incremental always-outranker counts for a delete: shrinks
/// `old_counts` (over `old_data`, capped at `cap`) to the dataset with row
/// `deleted_id` removed.
///
/// Compaction preserves the survivors' relative id order, so every
/// pairwise AlwaysOutranks relation among them is unchanged — only the
/// deleted row's contributions vanish. A survivor the deleted row
/// always-outranked loses exactly one outranker: exact counts (< cap)
/// just decrement, saturated counts (== cap, true value unknown) are
/// recounted with an early exit at `cap`. More than `max_recounts` such
/// rows → maintained == false (rebuild beats recounting). Output is
/// bit-identical to a fresh count over the compacted dataset.
Result<ShrinkCountsOutcome> ShrinkOutrankerCountsForDelete(
    const data::Dataset& old_data, size_t deleted_id, size_t cap,
    const std::vector<uint32_t>& old_counts, size_t max_recounts,
    const ExecContext& ctx = {});

/// \brief Versioned, updatable dataset: the dynamic-data layer over
/// PreparedDataset (ROADMAP item 3).
///
/// Every row-state is one immutable PreparedDataset carrying its own
/// version token and shared-artifact caches — copy-on-write snapshots.
/// Writers (Insert/Delete/BatchAppend) serialize, build the next version
/// off to the side, and publish it atomically; readers grab Snapshot()
/// and keep a fully consistent view for as long as they hold it, caches
/// included: a query pinned to an old snapshot still hits that version's
/// memos, because nothing about an old version is ever invalidated — new
/// versions are new keys (see RrrEngine's version-keyed result memo).
///
/// Ids are dense row indices 0..size()-1 of the CURRENT version: an
/// append takes the next ids, a delete shifts every higher id down by
/// one (each version is compacted, which is what makes it bit-identical
/// to a from-scratch build over the same rows — the differential suite's
/// oracle contract).
///
/// Every version transposes its own columnar mirror afresh: the update
/// already copies all n rows, so the transpose costs the same order. When
/// the previous version had k-skyband counts, they carry forward via the
/// append/delete primitives above; a delete that would recount more than
/// 8 saturated rows drops them, so the next candidate build recounts from
/// scratch (dataset_updates.cc). None of this changes any query result.
/// An update preempted via ExecContext returns Cancelled/DeadlineExceeded
/// with the current version untouched and no partial artifact published
/// anywhere.
///
/// Thread-safety: all methods are safe from any thread; writers serialize
/// with each other, readers never block writers beyond one mutex-guarded
/// pointer copy.
class DynamicDataset {
 public:
  /// Validates and prepares the initial rows (see PreparedDataset::Create;
  /// the dataset must be non-empty and stays non-empty forever — Delete
  /// refuses to remove the last row). `candidate` is the candidate-index
  /// build policy of every version this dataset publishes.
  static Result<std::shared_ptr<DynamicDataset>> Create(
      data::Dataset initial, const CandidateIndexOptions& candidate = {});

  /// The current version's immutable snapshot (never null). Holders keep
  /// a consistent view — rows, version token, artifact caches — no matter
  /// what writers publish afterwards.
  std::shared_ptr<const PreparedDataset> Snapshot() const;

  /// The current version token (== Snapshot()->version()).
  DatasetVersion version() const { return Snapshot()->version(); }

  size_t size() const { return Snapshot()->size(); }
  size_t dims() const { return Snapshot()->dims(); }

  /// Appends one row (id = size()); returns the published version.
  /// InvalidArgument on dimension mismatch or non-finite values, in which
  /// case the current version is unchanged.
  Result<DatasetVersion> Insert(const std::vector<double>& row,
                                const ExecContext& ctx = {})
      RRR_EXCLUDES(writer_mu_);

  /// Appends `rows` in order (ids = size(), size()+1, ...) as ONE new
  /// version. An empty batch publishes nothing and returns the current
  /// version.
  Result<DatasetVersion> BatchAppend(
      const std::vector<std::vector<double>>& rows,
      const ExecContext& ctx = {}) RRR_EXCLUDES(writer_mu_);

  /// Deletes row `id` of the current version; higher ids shift down by
  /// one. InvalidArgument when out of range or when the delete would empty
  /// the dataset.
  Result<DatasetVersion> Delete(int32_t id, const ExecContext& ctx = {})
      RRR_EXCLUDES(writer_mu_);

 private:
  DynamicDataset(std::shared_ptr<const PreparedDataset> initial,
                 const CandidateIndexOptions& candidate);

  /// Builds + publishes the next version from `cells` (the full new
  /// row-major buffer). `appended_from` == the old row count for appends
  /// (drives count extension), or SIZE_MAX with `deleted_id` set for
  /// deletes.
  Result<DatasetVersion> PublishNext(
      const std::shared_ptr<const PreparedDataset>& base,
      std::vector<double> cells, size_t new_rows, size_t appended_from,
      size_t deleted_id, const ExecContext& ctx) RRR_REQUIRES(writer_mu_);

  const CandidateIndexOptions candidate_options_;
  /// Serializes update builders: held across the whole build-and-publish
  /// of a new version, guarding no data itself (the build works on local
  /// state; publication takes mu_ at the very end). RRR_REQUIRES on
  /// PublishNext is what ties the capability to the builders' contract.
  Mutex writer_mu_ RRR_ACQUIRED_BEFORE(mu_);
  mutable Mutex mu_;
  std::shared_ptr<const PreparedDataset> current_ RRR_GUARDED_BY(mu_);
};

/// \brief Dynamic engine over `source`: every Solve/SolveDual/Evaluate
/// resolves the current snapshot at query entry (pin an explicit one via
/// QueryOptions::snapshot), with results memoized per dataset version.
Result<std::shared_ptr<RrrEngine>> NewDynamicEngine(
    std::shared_ptr<const DynamicDataset> source, EngineOptions options = {});

}  // namespace core
}  // namespace rrr

#endif  // RRR_CORE_DATASET_UPDATES_H_
