#include "data/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace rrr {
namespace data {

namespace {

/// Splits one CSV record into `fields`, honoring RFC-4180 quoting: a field
/// wrapped in double quotes may contain the separator, and a doubled quote
/// inside a quoted field is a literal quote. A quote opens a quoted field
/// only at the field's start (like common parsers); characters after the
/// closing quote, up to the next separator, are kept literally.
///
/// Unquoted fields are views into `line`. Quoted fields are unescaped into
/// `scratch`, which is reserved to the record's length first: unescaping
/// never lengthens a field, so it never reallocates and the views stay
/// valid until the next call. Returns InvalidArgument for a quote that is
/// never closed (the caller attaches the line number).
Status SplitRecord(std::string_view line, char sep, std::string* scratch,
                   std::vector<std::string_view>* fields) {
  fields->clear();
  scratch->clear();
  scratch->reserve(line.size());
  size_t i = 0;
  for (;;) {
    const bool quoted = i < line.size() && line[i] == '"';
    const size_t unescaped = scratch->size();
    if (quoted) {
      for (++i;;) {
        if (i == line.size()) {
          return Status::InvalidArgument("unterminated quoted field");
        }
        const char c = line[i++];
        if (c != '"') {
          scratch->push_back(c);
        } else if (i < line.size() && line[i] == '"') {
          scratch->push_back('"');  // escaped quote
          ++i;
        } else {
          break;
        }
      }
    }
    size_t end = line.find(sep, i);
    if (end == std::string_view::npos) end = line.size();
    if (quoted) {
      scratch->append(line.substr(i, end - i));
      fields->emplace_back(scratch->data() + unescaped,
                           scratch->size() - unescaped);
    } else {
      fields->push_back(line.substr(i, end - i));
    }
    if (end == line.size()) return Status::OK();
    i = end + 1;  // a trailing separator yields a last, empty field
  }
}

/// True when `field` must be quoted on output to survive a round trip.
/// (Line breaks are rejected by WriteCsv before this is consulted — the
/// line-based reader cannot parse a field spanning physical lines.)
bool NeedsQuoting(std::string_view field, char sep) {
  return field.find(sep) != std::string_view::npos ||
         field.find('"') != std::string_view::npos;
}

std::string QuoteField(std::string_view field) {
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options) {
  RRR_FAILPOINT("data.csv.read");
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  // File size for the cell-buffer reserve heuristic below. Non-seekable
  // inputs (FIFOs, character devices) fail the probe: clear the stream
  // state so parsing proceeds normally, just without a size estimate.
  in.seekg(0, std::ios::end);
  const std::streamoff file_bytes = in.tellg();
  if (in.good() && file_bytes > 0) {
    in.seekg(0, std::ios::beg);
  } else {
    in.clear();
  }
  std::string line;
  std::string scratch;                  // unescaped quoted fields
  std::vector<std::string_view> fields;  // one record's fields, reused
  std::vector<std::string> names;
  size_t d = 0;
  bool first = true;
  std::vector<double> cells;
  size_t n = 0;
  size_t line_no = 0;
  // std::getline yields the final record whether or not the file ends with
  // a newline; a trailing CRLF '\r' is stripped below before splitting so a
  // Windows file never corrupts its last field.
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view record = line;
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    if (Trim(record).empty()) continue;
    const Status split =
        SplitRecord(record, options.separator, &scratch, &fields);
    if (!split.ok()) {
      if (options.skip_bad_rows) continue;
      return Status::InvalidArgument(
          StrFormat("line %zu: %s", line_no, split.message().c_str()));
    }
    if (first) {
      first = false;
      if (options.has_header) {
        for (std::string_view f : fields) names.emplace_back(Trim(f));
        d = names.size();
        continue;
      }
      d = fields.size();
    }
    if (fields.size() != d) {
      if (options.skip_bad_rows) continue;
      return Status::InvalidArgument(
          StrFormat("line %zu: %zu fields, expected %zu", line_no,
                    fields.size(), d));
    }
    if (cells.capacity() == 0 && d > 0 && file_bytes > 0) {
      // Size the flat buffer once, from the first data record: estimated
      // rows = file size / this record's byte length (+1 for the
      // newline). Large ingests then grow the buffer zero or a few times
      // instead of O(log n) reallocation-and-copy cycles. The estimate
      // only reserves (never resizes), and is doubly capped so an
      // atypically short first record cannot turn a long file into a
      // multi-GB speculative allocation: by the content bound (a cell
      // costs at least 2 file bytes — one character plus its separator)
      // and by an absolute 1 << 25 cells (256 MiB of doubles), past which
      // geometric growth is amortized anyway.
      const size_t approx_row_bytes = record.size() + 1;
      const size_t approx_rows =
          static_cast<size_t>(file_bytes) / std::max<size_t>(1,
                                                             approx_row_bytes);
      const size_t cap_cells = std::min<size_t>(
          size_t{1} << 25, static_cast<size_t>(file_bytes) / 2);
      const size_t approx_cells = approx_rows >= cap_cells / d
                                      ? cap_cells
                                      : (approx_rows + 1) * d;
      cells.reserve(std::min(approx_cells, cap_cells));
    }
    // Values go straight into `cells`; a bad row is cut back off.
    const size_t row_start = cells.size();
    bool bad = false;
    for (std::string_view f : fields) {
      Result<double> v = ParseDouble(f);
      if (!v.ok()) {
        if (!options.skip_bad_rows) {
          return Status::InvalidArgument(
              StrFormat("line %zu: %s", line_no,
                        v.status().message().c_str()));
        }
        bad = true;
        break;
      }
      cells.push_back(*v);
    }
    if (bad) {
      cells.resize(row_start);
      continue;
    }
    ++n;
  }
  return Dataset::FromFlat(std::move(cells), n, d, std::move(names));
}

Status WriteCsv(const std::string& path, const Dataset& dataset,
                const CsvOptions& options) {
  RRR_FAILPOINT("data.csv.write");
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const char sep = options.separator;
  if (options.has_header) {
    std::vector<std::string> header;
    header.reserve(dataset.column_names().size());
    for (const std::string& name : dataset.column_names()) {
      if (name.find('\n') != std::string::npos ||
          name.find('\r') != std::string::npos) {
        // The line-based reader cannot parse a quoted field spanning
        // physical lines, so such a file would not round-trip: refuse to
        // write it rather than emit something ReadCsv rejects.
        return Status::InvalidArgument(
            "column name contains a line break; rename the column before "
            "writing CSV");
      }
      header.push_back(NeedsQuoting(name, sep) ? QuoteField(name) : name);
    }
    out << Join(header, std::string(1, sep)) << '\n';
  }
  std::ostringstream line;
  for (size_t i = 0; i < dataset.size(); ++i) {
    line.str("");
    const double* r = dataset.row(i);
    for (size_t j = 0; j < dataset.dims(); ++j) {
      if (j > 0) line << sep;
      line << StrFormat("%.17g", r[j]);
    }
    out << line.str() << '\n';
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace data
}  // namespace rrr
