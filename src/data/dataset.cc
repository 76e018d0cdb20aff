#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace rrr {
namespace data {

Dataset::Dataset(std::vector<double> cells, size_t n, size_t d,
                 std::vector<std::string> names)
    : n_(n), d_(d), cells_(std::move(cells)), names_(std::move(names)) {
  if (names_.empty()) {
    names_.reserve(d_);
    for (size_t j = 0; j < d_; ++j) names_.push_back(StrFormat("a%zu", j));
  }
}

Result<Dataset> Dataset::FromFlat(std::vector<double> cells, size_t n,
                                  size_t d, std::vector<std::string> names) {
  if (d == 0 && n > 0) {
    return Status::InvalidArgument("rows require at least one column");
  }
  if (cells.size() != n * d) {
    return Status::InvalidArgument(
        StrFormat("flat buffer has %zu cells, expected %zu", cells.size(),
                  n * d));
  }
  if (!names.empty() && names.size() != d) {
    return Status::InvalidArgument("column name count != d");
  }
  return Dataset(std::move(cells), n, d, std::move(names));
}

Result<Dataset> Dataset::FromRows(const std::vector<std::vector<double>>& rows,
                                  std::vector<std::string> names) {
  if (rows.empty()) {
    return Dataset(std::vector<double>{}, 0, names.size(), std::move(names));
  }
  const size_t d = rows[0].size();
  std::vector<double> cells;
  cells.reserve(rows.size() * d);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != d) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu columns, expected %zu", i,
                    rows[i].size(), d));
    }
    cells.insert(cells.end(), rows[i].begin(), rows[i].end());
  }
  return FromFlat(std::move(cells), rows.size(), d, std::move(names));
}

double Dataset::at(size_t i, size_t j) const {
  RRR_DCHECK(i < n_ && j < d_) << "Dataset::at out of range";
  return cells_[i * d_ + j];
}

Dataset Dataset::Head(size_t m) const {
  const size_t keep = std::min(m, n_);
  std::vector<double> cells(cells_.begin(),
                            cells_.begin() + static_cast<long>(keep * d_));
  return Dataset(std::move(cells), keep, d_, names_);
}

Dataset Dataset::Sample(size_t m, Rng* rng) const {
  RRR_CHECK(rng != nullptr) << "Sample: null rng";
  const size_t keep = std::min(m, n_);
  std::vector<int32_t> idx(n_);
  std::iota(idx.begin(), idx.end(), 0);
  rng->Shuffle(&idx);
  idx.resize(keep);
  std::sort(idx.begin(), idx.end());  // preserve original relative order
  std::vector<double> cells;
  cells.reserve(keep * d_);
  for (int32_t i : idx) {
    const double* r = row(static_cast<size_t>(i));
    cells.insert(cells.end(), r, r + d_);
  }
  return Dataset(std::move(cells), keep, d_, names_);
}

Dataset Dataset::ProjectPrefix(size_t dims) const {
  const size_t keep = std::min(dims, d_);
  std::vector<int32_t> cols(keep);
  std::iota(cols.begin(), cols.end(), 0);
  Result<Dataset> projected = Project(cols);
  RRR_CHECK(projected.ok()) << projected.status().ToString();
  return std::move(projected).value();
}

Status Dataset::CheckFinite() const {
  for (size_t idx = 0; idx < cells_.size(); ++idx) {
    if (!std::isfinite(cells_[idx])) {
      const size_t i = idx / d_;
      const size_t j = idx % d_;
      return Status::InvalidArgument(StrFormat(
          "non-finite value %g at row %zu, column '%s'; NaN/inf scores make "
          "comparator ordering undefined — clean the data first",
          cells_[idx], i, names_[j].c_str()));
    }
  }
  return Status::OK();
}

Result<Dataset> Dataset::Project(const std::vector<int32_t>& columns) const {
  for (int32_t c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= d_) {
      return Status::OutOfRange(StrFormat("column %d out of range", c));
    }
  }
  std::vector<double> cells;
  cells.reserve(n_ * columns.size());
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (int32_t c : columns) names.push_back(names_[static_cast<size_t>(c)]);
  for (size_t i = 0; i < n_; ++i) {
    const double* r = row(i);
    for (int32_t c : columns) cells.push_back(r[c]);
  }
  return Dataset(std::move(cells), n_, columns.size(), std::move(names));
}

}  // namespace data
}  // namespace rrr
