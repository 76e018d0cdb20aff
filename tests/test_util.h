#ifndef RRR_TESTS_TEST_UTIL_H_
#define RRR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "data/column_blocks.h"
#include "data/dataset.h"
#include "geometry/vec.h"
#include "topk/scoring.h"

namespace rrr {
namespace testing {

/// Builds a dataset from literal rows, aborting on malformed input
/// (tests construct only well-formed data).
inline data::Dataset MakeDataset(
    const std::vector<std::vector<double>>& rows) {
  Result<data::Dataset> ds = data::Dataset::FromRows(rows);
  RRR_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

/// The running example of the paper (Figure 1), 0-based ids: t1 -> 0, ...,
/// t7 -> 6.
inline data::Dataset PaperFigure1Dataset() {
  return MakeDataset({{0.80, 0.28},
                      {0.54, 0.45},
                      {0.67, 0.60},
                      {0.32, 0.42},
                      {0.46, 0.72},
                      {0.23, 0.52},
                      {0.91, 0.43}});
}

/// Serial dense columnar mirror of `dataset`, aborting on failure (the
/// form every mirror-taking API under test wants).
inline data::ColumnBlocks MustBuildBlocks(const data::Dataset& dataset) {
  Result<data::ColumnBlocks> blocks = data::ColumnBlocks::Build(dataset, 1);
  RRR_CHECK(blocks.ok()) << blocks.status().ToString();
  return std::move(blocks).value();
}

/// \brief Brute-force top-k oracle, straight from the definition: every
/// row scored by LinearFunction::Score, the whole dataset sorted under
/// topk::Outranks (score desc, id asc), the first min(k, n) ids kept, best
/// first. The reference the blocked kernel's scans are checked against.
/// Finite scores only (Outranks is not a strict weak order over NaN).
std::vector<int32_t> BruteTopK(const data::Dataset& dataset,
                               const topk::LinearFunction& f, size_t k);

/// BruteTopK's ids sorted ascending (the k-set form).
std::vector<int32_t> BruteTopKSet(const data::Dataset& dataset,
                                  const topk::LinearFunction& f, size_t k);

/// Brute-force rank oracle: 1 + the number of rows that outrank `item`
/// under topk::Outranks, counted one row at a time.
int64_t BruteRankOf(const data::Dataset& dataset,
                    const topk::LinearFunction& f, int32_t item);

/// Brute-force RR_f(subset): BruteRankOf of the member that outranks all
/// the others.
int64_t BruteMinRankOfSubset(const data::Dataset& dataset,
                             const topk::LinearFunction& f,
                             const std::vector<int32_t>& subset);

/// Top-k (best first) under the 2D function w = (cos theta, sin theta),
/// straight from the definition (BruteTopK).
inline std::vector<int32_t> TopKAtAngle(const data::Dataset& dataset,
                                        double theta, size_t k) {
  return BruteTopK(
      dataset, topk::LinearFunction({std::cos(theta), std::sin(theta)}), k);
}

/// Exhaustive minimum RRR size for 2D datasets: tries all subsets of the
/// items that ever enter a top-k, smallest cardinality first, checking exact
/// rank-regret with the sweep evaluator. Exponential; use only for tiny n.
int64_t BruteForceOptimalRrrSize2D(const data::Dataset& dataset, size_t k);

/// Evenly spaced angles in [0, pi/2] including both endpoints.
std::vector<double> AngleGrid(size_t count);

/// Synthetic data families exercised by the dynamic-data differential
/// suite: the classic distribution shapes plus two degenerate stressors
/// (tie-saturated duplicates and a zero-information column).
enum class DataFamily {
  kUniform,
  kCorrelated,
  kAnticorrelated,
  kDuplicateHeavy,
  kConstantColumn,
};

const std::vector<DataFamily>& AllDataFamilies();
const char* DataFamilyName(DataFamily family);

/// `n` rows of `d` dims drawn from the family, deterministic in `seed`.
/// All values are finite in [0, 1], higher-is-better (the library's data
/// contract).
std::vector<std::vector<double>> FamilyRows(DataFamily family, size_t n,
                                            size_t d, uint64_t seed);

/// One step of a recorded dynamic-data schedule. Mutations carry their
/// payload (rows to append, the id to delete) resolved at generation time
/// against the tracked dataset size, so a recorded schedule replays
/// identically no matter what the driver observed on a previous run.
struct DynamicOp {
  enum class Kind {
    kInsert,       // append rows[0]
    kBatchAppend,  // append all of rows as one version
    kDelete,       // delete delete_id (valid for the size at this step)
    kSolve,        // Solve(min(k, size))
    kSolveDual,    // SolveDual(max_size)
    kEvaluate,     // Evaluate(last Solve representative, its k)
    kSnapshotPin,  // pin Snapshot(), Solve against it now and at the end
  };
  Kind kind = Kind::kSolve;
  std::vector<std::vector<double>> rows;
  int32_t delete_id = 0;
  size_t k = 1;
  size_t max_size = 1;
};

/// A replayable interleaving of updates and queries over one family. The
/// whole schedule is a pure function of (family, seed, dims, num_ops);
/// ToString() renders everything a human needs to replay a failure.
struct DynamicSchedule {
  uint64_t seed = 0;
  DataFamily family = DataFamily::kUniform;
  size_t dims = 2;
  std::vector<std::vector<double>> initial_rows;
  std::vector<DynamicOp> ops;

  std::string ToString() const;
};

/// Generates a random schedule: 16-48 initial rows, then `num_ops` steps.
/// The first steps always cover {Solve, Insert, Delete, BatchAppend} (in a
/// seed-dependent order) so every schedule exercises every mutation kind;
/// the rest are drawn from a mixed distribution. Delete ids are drawn
/// against the size the dataset will have at that step, and Evaluate is
/// only emitted after at least one Solve.
DynamicSchedule MakeDynamicSchedule(DataFamily family, uint64_t seed,
                                    size_t dims, size_t num_ops);

}  // namespace testing
}  // namespace rrr

#endif  // RRR_TESTS_TEST_UTIL_H_
