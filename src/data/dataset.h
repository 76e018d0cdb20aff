#ifndef RRR_DATA_DATASET_H_
#define RRR_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace rrr {
namespace data {

/// \brief In-memory table of n tuples over d numeric attributes,
/// row-major contiguous storage.
///
/// This is the "database D" of the paper (Section 2): d scalar attributes
/// that participate in linear preference functions. Algorithms assume values
/// are already normalized so that *higher is better on every column* (use
/// MinMaxNormalize from normalize.h for raw data with mixed directions).
class Dataset {
 public:
  /// Empty dataset with zero columns.
  Dataset() = default;

  /// Dataset from a flat row-major buffer; cells.size() must be n*d.
  static Result<Dataset> FromFlat(std::vector<double> cells, size_t n,
                                  size_t d,
                                  std::vector<std::string> names = {});

  /// Dataset from a row-of-rows representation; rows must be rectangular.
  static Result<Dataset> FromRows(
      const std::vector<std::vector<double>>& rows,
      std::vector<std::string> names = {});

  size_t size() const { return n_; }
  size_t dims() const { return d_; }
  bool empty() const { return n_ == 0; }

  /// Pointer to row i (d contiguous doubles).
  const double* row(size_t i) const { return cells_.data() + i * d_; }

  /// Cell accessor with bounds enforced in debug builds.
  double at(size_t i, size_t j) const;

  /// Flat row-major buffer (n*d doubles).
  const double* flat() const { return cells_.data(); }

  /// Column names; defaults to "a0".."a{d-1}" when not supplied.
  const std::vector<std::string>& column_names() const { return names_; }

  /// First min(m, size()) rows (used by dataset-size sweeps so that a
  /// smaller run is always a prefix of a larger one).
  Dataset Head(size_t m) const;

  /// Uniform sample without replacement of min(m, size()) rows.
  Dataset Sample(size_t m, Rng* rng) const;

  /// New dataset keeping only the first `dims` columns (used by
  /// dimensionality sweeps).
  Dataset ProjectPrefix(size_t dims) const;

  /// New dataset with the selected columns, in the given order.
  Result<Dataset> Project(const std::vector<int32_t>& columns) const;

  /// OK when every cell is finite; otherwise InvalidArgument naming the
  /// first offending row/column. The solvers require finite input: NaN
  /// scores would silently corrupt every comparison.
  Status CheckFinite() const;

 private:
  Dataset(std::vector<double> cells, size_t n, size_t d,
          std::vector<std::string> names);

  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<double> cells_;
  std::vector<std::string> names_;
};

}  // namespace data
}  // namespace rrr

#endif  // RRR_DATA_DATASET_H_
