#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>

#include "common/random.h"
#include "core/evaluator.h"
#include "core/find_ranges.h"
#include "data/generators.h"
#include "geometry/angles.h"

namespace rrr {
namespace testing {

namespace {

/// Enumerates size-`r` subsets of `candidates`, invoking `fn` until it
/// returns true; returns whether any subset succeeded.
bool ForEachSubset(const std::vector<int32_t>& candidates, size_t r,
                   std::vector<int32_t>* current, size_t from,
                   const std::function<bool(const std::vector<int32_t>&)>& fn) {
  if (current->size() == r) return fn(*current);
  for (size_t i = from; i < candidates.size(); ++i) {
    current->push_back(candidates[i]);
    if (ForEachSubset(candidates, r, current, i + 1, fn)) return true;
    current->pop_back();
  }
  return false;
}

}  // namespace

std::vector<int32_t> BruteTopK(const data::Dataset& dataset,
                               const topk::LinearFunction& f, size_t k) {
  const size_t n = dataset.size();
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) scores[i] = f.Score(dataset.row(i));
  std::vector<int32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&scores](int32_t a, int32_t b) {
    return topk::Outranks(scores[static_cast<size_t>(a)], a,
                          scores[static_cast<size_t>(b)], b);
  });
  ids.resize(std::min(k, n));
  return ids;
}

std::vector<int32_t> BruteTopKSet(const data::Dataset& dataset,
                                  const topk::LinearFunction& f, size_t k) {
  std::vector<int32_t> ids = BruteTopK(dataset, f, k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t BruteRankOf(const data::Dataset& dataset,
                    const topk::LinearFunction& f, int32_t item) {
  const double score = f.Score(dataset.row(static_cast<size_t>(item)));
  int64_t rank = 1;
  for (size_t j = 0; j < dataset.size(); ++j) {
    const int32_t id = static_cast<int32_t>(j);
    if (topk::Outranks(f.Score(dataset.row(j)), id, score, item)) ++rank;
  }
  return rank;
}

int64_t BruteMinRankOfSubset(const data::Dataset& dataset,
                             const topk::LinearFunction& f,
                             const std::vector<int32_t>& subset) {
  RRR_CHECK(!subset.empty()) << "BruteMinRankOfSubset: empty subset";
  // The member that outranks every other member has the minimum rank.
  int32_t best = subset[0];
  for (int32_t id : subset) {
    if (topk::Outranks(f.Score(dataset.row(static_cast<size_t>(id))), id,
                       f.Score(dataset.row(static_cast<size_t>(best))),
                       best)) {
      best = id;
    }
  }
  return BruteRankOf(dataset, f, best);
}

int64_t BruteForceOptimalRrrSize2D(const data::Dataset& dataset, size_t k) {
  // Only items that ever appear in a top-k can help.
  Result<std::vector<core::ItemRange>> ranges =
      core::FindRanges(dataset, k);
  RRR_CHECK(ranges.ok()) << ranges.status().ToString();
  std::vector<int32_t> candidates;
  for (size_t id = 0; id < ranges->size(); ++id) {
    if ((*ranges)[id].in_topk) candidates.push_back(static_cast<int32_t>(id));
  }
  RRR_CHECK(!candidates.empty()) << "no top-k candidates";

  for (size_t r = 1; r <= candidates.size(); ++r) {
    std::vector<int32_t> current;
    const bool found = ForEachSubset(
        candidates, r, &current, 0,
        [&](const std::vector<int32_t>& subset) {
          Result<int64_t> regret =
              core::SweepExactRankRegret2D(dataset, subset);
          RRR_CHECK(regret.ok()) << regret.status().ToString();
          return *regret <= static_cast<int64_t>(k);
        });
    if (found) return static_cast<int64_t>(r);
  }
  return static_cast<int64_t>(candidates.size());
}

const std::vector<DataFamily>& AllDataFamilies() {
  static const std::vector<DataFamily> families = {
      DataFamily::kUniform, DataFamily::kCorrelated,
      DataFamily::kAnticorrelated, DataFamily::kDuplicateHeavy,
      DataFamily::kConstantColumn};
  return families;
}

const char* DataFamilyName(DataFamily family) {
  switch (family) {
    case DataFamily::kUniform:
      return "uniform";
    case DataFamily::kCorrelated:
      return "correlated";
    case DataFamily::kAnticorrelated:
      return "anticorrelated";
    case DataFamily::kDuplicateHeavy:
      return "duplicate-heavy";
    case DataFamily::kConstantColumn:
      return "constant-column";
  }
  return "unknown";
}

std::vector<std::vector<double>> FamilyRows(DataFamily family, size_t n,
                                            size_t d, uint64_t seed) {
  data::Dataset base;
  switch (family) {
    case DataFamily::kUniform:
    case DataFamily::kDuplicateHeavy:
    case DataFamily::kConstantColumn:
      base = data::GenerateUniform(n, d, seed);
      break;
    case DataFamily::kCorrelated:
      base = data::GenerateCorrelated(n, d, seed);
      break;
    case DataFamily::kAnticorrelated:
      base = data::GenerateAnticorrelated(n, d, seed);
      break;
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double* r = base.row(i);
    std::vector<double> row(r, r + d);
    if (family == DataFamily::kDuplicateHeavy) {
      // Quantized coordinates: heavy ties and exact duplicates.
      for (double& v : row) v = std::round(v * 8.0) / 8.0;
    } else if (family == DataFamily::kConstantColumn) {
      row[0] = 0.5;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string DynamicSchedule::ToString() const {
  std::ostringstream out;
  out << "schedule{family=" << DataFamilyName(family) << " seed=" << seed
      << " d=" << dims << " n0=" << initial_rows.size() << " ops=[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out << " ";
    const DynamicOp& op = ops[i];
    switch (op.kind) {
      case DynamicOp::Kind::kInsert:
        out << "I";
        break;
      case DynamicOp::Kind::kBatchAppend:
        out << "B" << op.rows.size();
        break;
      case DynamicOp::Kind::kDelete:
        out << "D" << op.delete_id;
        break;
      case DynamicOp::Kind::kSolve:
        out << "S(k=" << op.k << ")";
        break;
      case DynamicOp::Kind::kSolveDual:
        out << "SD(m=" << op.max_size << ")";
        break;
      case DynamicOp::Kind::kEvaluate:
        out << "E";
        break;
      case DynamicOp::Kind::kSnapshotPin:
        out << "P(k=" << op.k << ")";
        break;
    }
  }
  out << "]}";
  return out.str();
}

DynamicSchedule MakeDynamicSchedule(DataFamily family, uint64_t seed,
                                    size_t dims, size_t num_ops) {
  DynamicSchedule schedule;
  schedule.seed = seed;
  schedule.family = family;
  schedule.dims = dims;
  // Distinct streams per (family, seed): ops, payload rows, and the initial
  // dataset must not alias across families sharing a seed.
  const uint64_t stream =
      seed * 1000003u + static_cast<uint64_t>(family) * 7919u;
  Rng rng(stream);
  const size_t n0 = 16 + static_cast<size_t>(rng.UniformInt(0, 32));
  schedule.initial_rows = FamilyRows(family, n0, dims, stream + 1);

  size_t size = n0;       // tracked so every delete id is valid at replay
  bool solved = false;    // Evaluate needs an earlier Solve
  uint64_t payload = 0;   // per-op payload seed counter

  // Forced prefix: every schedule exercises every mutation kind plus one
  // query, in a seed-dependent order.
  std::vector<DynamicOp::Kind> kinds = {
      DynamicOp::Kind::kSolve, DynamicOp::Kind::kInsert,
      DynamicOp::Kind::kDelete, DynamicOp::Kind::kBatchAppend};
  rng.Shuffle(&kinds);
  while (kinds.size() < num_ops) {
    const int64_t roll = rng.UniformInt(0, 99);
    DynamicOp::Kind kind;
    if (roll < 15) {
      kind = DynamicOp::Kind::kInsert;
    } else if (roll < 27) {
      kind = DynamicOp::Kind::kBatchAppend;
    } else if (roll < 42) {
      kind = DynamicOp::Kind::kDelete;
    } else if (roll < 67) {
      kind = DynamicOp::Kind::kSolve;
    } else if (roll < 77) {
      kind = DynamicOp::Kind::kSolveDual;
    } else if (roll < 88) {
      kind = DynamicOp::Kind::kEvaluate;
    } else {
      kind = DynamicOp::Kind::kSnapshotPin;
    }
    kinds.push_back(kind);
  }

  for (DynamicOp::Kind kind : kinds) {
    DynamicOp op;
    op.kind = kind;
    switch (kind) {
      case DynamicOp::Kind::kInsert:
        op.rows = FamilyRows(family, 1, dims, stream + 100 + payload++);
        ++size;
        break;
      case DynamicOp::Kind::kBatchAppend: {
        const size_t count = 2 + static_cast<size_t>(rng.UniformInt(0, 4));
        op.rows = FamilyRows(family, count, dims, stream + 100 + payload++);
        size += count;
        break;
      }
      case DynamicOp::Kind::kDelete:
        if (size < 2) continue;  // Delete refuses to empty the dataset
        op.delete_id = static_cast<int32_t>(
            rng.UniformInt(0, static_cast<int64_t>(size) - 1));
        --size;
        break;
      case DynamicOp::Kind::kSolve:
      case DynamicOp::Kind::kSnapshotPin:
        op.k = 1 + static_cast<size_t>(rng.UniformInt(0, 7));
        solved = solved || kind == DynamicOp::Kind::kSolve;
        break;
      case DynamicOp::Kind::kSolveDual:
        op.max_size = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
        break;
      case DynamicOp::Kind::kEvaluate:
        if (!solved) continue;
        break;
    }
    schedule.ops.push_back(std::move(op));
  }
  return schedule;
}

std::vector<double> AngleGrid(size_t count) {
  RRR_CHECK(count >= 2) << "grid needs at least the two endpoints";
  std::vector<double> grid(count);
  for (size_t i = 0; i < count; ++i) {
    // Fraction first so the endpoints are exactly 0 and kHalfPi (the
    // multiply-then-divide order overshoots pi/2 by one ulp).
    grid[i] = geometry::kHalfPi *
              (static_cast<double>(i) / static_cast<double>(count - 1));
  }
  grid.back() = geometry::kHalfPi;
  return grid;
}

}  // namespace testing
}  // namespace rrr
