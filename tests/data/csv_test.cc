#include "data/csv.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>

#include <thread>
#endif

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "data/generators.h"

namespace rrr {
namespace data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "rrr_csv_" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(CsvTest, ReadsHeaderAndRows) {
  const std::string path = TempPath("basic.csv");
  WriteFile(path, "x,y\n1.5,2.5\n3.0,4.0\n");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->dims(), 2u);
  EXPECT_EQ(ds->column_names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(ds->at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(ds->at(1, 1), 4.0);
}

TEST_F(CsvTest, ReadsHeaderless) {
  const std::string path = TempPath("noheader.csv");
  WriteFile(path, "1,2\n3,4\n");
  CsvOptions opts;
  opts.has_header = false;
  Result<Dataset> ds = ReadCsv(path, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_DOUBLE_EQ(ds->at(0, 0), 1.0);
}

TEST_F(CsvTest, SkipsBlankLines) {
  const std::string path = TempPath("blanks.csv");
  WriteFile(path, "x\n1\n\n2\n\n");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
}

TEST_F(CsvTest, RejectsBadFieldByDefault) {
  const std::string path = TempPath("bad.csv");
  WriteFile(path, "x,y\n1,notanumber\n");
  Result<Dataset> ds = ReadCsv(path);
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, SkipBadRowsDropsThem) {
  const std::string path = TempPath("skip.csv");
  WriteFile(path, "x,y\n1,2\n1,oops\n3,4\n5\n6,7\n");
  CsvOptions opts;
  opts.skip_bad_rows = true;
  Result<Dataset> ds = ReadCsv(path, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 3u);  // the malformed and short rows are dropped
}

TEST_F(CsvTest, RejectsWidthMismatch) {
  const std::string path = TempPath("width.csv");
  WriteFile(path, "x,y\n1,2\n3\n");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, MissingFileIsIoError) {
  Result<Dataset> ds = ReadCsv(TempPath("does_not_exist.csv"));
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, HandlesCrlfLineEndings) {
  const std::string path = TempPath("crlf.csv");
  WriteFile(path, "x,y\r\n1,2\r\n3,4\r\n");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->column_names()[1], "y");
  EXPECT_DOUBLE_EQ(ds->at(1, 1), 4.0);
}

TEST_F(CsvTest, MissingTrailingNewlineKeepsLastRow) {
  const std::string path = TempPath("notrail.csv");
  WriteFile(path, "x,y\n1,2\n3,4");  // no newline after the final row
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_DOUBLE_EQ(ds->at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(ds->at(1, 1), 4.0);
}

TEST_F(CsvTest, CrlfWithoutTrailingNewlineKeepsLastRow) {
  // The combination that used to corrupt the final tuple: Windows endings
  // and no newline after the last record.
  const std::string path = TempPath("crlf_notrail.csv");
  WriteFile(path, "x,y\r\n1,2\r\n3,4\r");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_DOUBLE_EQ(ds->at(1, 1), 4.0);
}

TEST_F(CsvTest, QuotedFieldsMayContainTheSeparator) {
  const std::string path = TempPath("quoted.csv");
  WriteFile(path, "\"price, usd\",rating\n\"1,234.5\",4\n\"2,000\",5\n");
  // Quoted numeric fields with grouping commas are not parseable doubles;
  // the quoting must still isolate them as single fields (not split and
  // silently shift the row), so strict mode reports a clean parse error...
  Result<Dataset> strict = ReadCsv(path);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  // ...and the header (also containing the delimiter) stays one column.
  CsvOptions skip;
  skip.skip_bad_rows = true;
  Result<Dataset> ds = ReadCsv(path, skip);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dims(), 2u);
  EXPECT_EQ(ds->column_names()[0], "price, usd");
  EXPECT_EQ(ds->size(), 0u);  // both rows dropped: field not a number
}

TEST_F(CsvTest, QuotedNumericFieldsParse) {
  const std::string path = TempPath("quoted_num.csv");
  WriteFile(path, "x,y\n\"1.5\",\"2.5\"\n3,\"4\"\n");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_DOUBLE_EQ(ds->at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(ds->at(1, 1), 4.0);
}

TEST_F(CsvTest, EscapedQuotesInsideQuotedField) {
  const std::string path = TempPath("escq.csv");
  WriteFile(path, "\"col \"\"a\"\"\",b\n1,2\n");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->column_names()[0], "col \"a\"");
  EXPECT_EQ(ds->size(), 1u);
}

TEST_F(CsvTest, UnterminatedQuoteIsAnError) {
  const std::string path = TempPath("unterminated.csv");
  WriteFile(path, "x,y\n\"1,2\n");
  Result<Dataset> strict = ReadCsv(path);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  CsvOptions skip;
  skip.skip_bad_rows = true;
  Result<Dataset> lenient = ReadCsv(path, skip);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->size(), 0u);
}

TEST_F(CsvTest, ColumnNameWithLineBreakIsRejectedOnWrite) {
  // The line-based reader cannot parse a quoted field spanning lines, so
  // writing such a header would produce a file ReadCsv rejects.
  Result<Dataset> ds =
      Dataset::FromRows({{1.0, 2.0}}, {"price\nUSD", "rating"});
  ASSERT_TRUE(ds.ok());
  const Status status = WriteCsv(TempPath("newline_name.csv"), *ds);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, QuotedHeaderRoundTrips) {
  Result<Dataset> original = Dataset::FromRows(
      {{1.0, 2.0}, {3.0, 4.0}}, {"price, usd", "rating \"stars\""});
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("quoted_roundtrip.csv");
  ASSERT_TRUE(WriteCsv(path, *original).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->column_names(), original->column_names());
  EXPECT_DOUBLE_EQ(loaded->at(1, 0), 3.0);
}

TEST_F(CsvTest, NanAndInfParseButSolverRejectsThem) {
  // ParseDouble accepts "nan"/"inf" (strtod semantics); AllFinite is the
  // guard that keeps them out of the solvers.
  const std::string path = TempPath("nonfinite.csv");
  WriteFile(path, "x,y\n1,nan\n2,inf\n3,4\n");
  Result<Dataset> ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 3u);
  EXPECT_FALSE(ds->AllFinite());
}

TEST_F(CsvTest, CustomSeparator) {
  const std::string path = TempPath("semi.csv");
  WriteFile(path, "a;b\n1;2\n");
  CsvOptions opts;
  opts.separator = ';';
  Result<Dataset> ds = ReadCsv(path, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dims(), 2u);
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  const Dataset original = GenerateUniform(50, 4, 123);
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(path, original).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->dims(), original.dims());
  EXPECT_EQ(loaded->column_names(), original.column_names());
  for (size_t i = 0; i < original.size(); ++i) {
    for (size_t j = 0; j < original.dims(); ++j) {
      // %.17g is lossless for doubles.
      EXPECT_DOUBLE_EQ(loaded->at(i, j), original.at(i, j));
    }
  }
}

TEST_F(CsvTest, WriteToUnwritablePathFails) {
  const Dataset ds = GenerateUniform(2, 2, 1);
  EXPECT_EQ(WriteCsv("/nonexistent_dir_xyz/out.csv", ds).code(),
            StatusCode::kIoError);
}

TEST_F(CsvTest, LargeIngestRoundTrips) {
  // Large-file ingest: exercises the file-size reserve heuristic (tens of
  // thousands of rows, short numeric fields) and verifies the parse is
  // exact at both ends and in the middle of the file.
  constexpr size_t kRows = 30000;
  constexpr size_t kDims = 6;
  const Dataset original = GenerateUniform(kRows, kDims, 777);
  const std::string path = TempPath("large.csv");
  ASSERT_TRUE(WriteCsv(path, original).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), kRows);
  ASSERT_EQ(loaded->dims(), kDims);
  for (size_t i : {size_t{0}, kRows / 2, kRows - 1}) {
    for (size_t j = 0; j < kDims; ++j) {
      EXPECT_DOUBLE_EQ(loaded->at(i, j), original.at(i, j));
    }
  }
}

#ifndef _WIN32
TEST_F(CsvTest, ReadsFromNonSeekableStream) {
  // Regression: the file-size probe behind the reserve heuristic must not
  // poison non-seekable inputs (FIFOs, process substitution) — seekg to
  // the end fails there, and an uncleaned failbit would make the read
  // loop see zero records.
  const std::string path = TempPath("fifo");
  ::unlink(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path);
    out << "x,y\n1.5,2.5\n3.0,4.0\n";
  });
  Result<Dataset> ds = ReadCsv(path);
  writer.join();
  ::unlink(path.c_str());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->dims(), 2u);
  EXPECT_DOUBLE_EQ(ds->at(1, 1), 4.0);
}
#endif  // !_WIN32

TEST_F(CsvTest, LargeIngestHeaderlessWithSkips) {
  // The reserve heuristic must stay an estimate: interleave bad rows that
  // skip_bad_rows drops so row count != file_size / row_bytes exactly.
  constexpr size_t kRows = 5000;
  std::string content;
  content.reserve(kRows * 12);
  for (size_t i = 0; i < kRows; ++i) {
    content += std::to_string(i) + ",1,2\n";
    if (i % 100 == 0) content += "bad,row,x\n";
  }
  const std::string path = TempPath("large_skip.csv");
  WriteFile(path, content);
  CsvOptions opts;
  opts.has_header = false;
  opts.skip_bad_rows = true;
  Result<Dataset> ds = ReadCsv(path, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), kRows);
  EXPECT_EQ(ds->dims(), 3u);
  EXPECT_DOUBLE_EQ(ds->at(kRows - 1, 0), static_cast<double>(kRows - 1));
}


// ---------------------------------------------------------------------------
// Mutation fuzzer: ReadCsv against a reference reader.
// ---------------------------------------------------------------------------

// The reference reader: one heap string per field, a copy of every field
// for strtod. ReadCsv must accept and reject exactly what this does, with
// the same messages and bit-identical cells.
Result<std::vector<std::string>> ReferenceSplit(std::string_view line,
                                                char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

Result<double> ReferenceParse(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: '" + buf + "'");
  }
  return v;
}

Result<Dataset> ReferenceReadCsv(const std::string& path,
                                 const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string line;
  std::vector<std::string> names;
  size_t d = 0;
  bool first = true;
  std::vector<double> cells;
  size_t n = 0;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view record = line;
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    if (Trim(record).empty()) continue;
    Result<std::vector<std::string>> split =
        ReferenceSplit(record, options.separator);
    if (!split.ok()) {
      if (options.skip_bad_rows) continue;
      return Status::InvalidArgument(StrFormat(
          "line %zu: %s", line_no, split.status().message().c_str()));
    }
    const std::vector<std::string>& fields = *split;
    if (first) {
      first = false;
      if (options.has_header) {
        for (const std::string& f : fields) names.emplace_back(Trim(f));
        d = names.size();
        continue;
      }
      d = fields.size();
    }
    if (fields.size() != d) {
      if (options.skip_bad_rows) continue;
      return Status::InvalidArgument(StrFormat(
          "line %zu: %zu fields, expected %zu", line_no, fields.size(), d));
    }
    std::vector<double> row;
    bool bad = false;
    for (const std::string& f : fields) {
      Result<double> v = ReferenceParse(f);
      if (!v.ok()) {
        if (!options.skip_bad_rows) {
          return Status::InvalidArgument(StrFormat(
              "line %zu: %s", line_no, v.status().message().c_str()));
        }
        bad = true;
        break;
      }
      row.push_back(*v);
    }
    if (bad) continue;
    cells.insert(cells.end(), row.begin(), row.end());
    ++n;
  }
  return Dataset::FromFlat(std::move(cells), n, d, std::move(names));
}

size_t Below(std::mt19937_64* rng, size_t bound) {
  return bound == 0 ? 0 : static_cast<size_t>((*rng)() % bound);
}

// Start of the line holding `pos`, and the offset just past its newline.
std::pair<size_t, size_t> LineAround(const std::string& text, size_t pos) {
  const size_t nl_before = pos == 0 ? std::string::npos
                                    : text.rfind('\n', pos - 1);
  const size_t begin = nl_before == std::string::npos ? 0 : nl_before + 1;
  const size_t nl_after = text.find('\n', pos);
  const size_t end = nl_after == std::string::npos ? text.size() : nl_after + 1;
  return {begin, end};
}

// A line of about 100 KB: a very wide row, one huge numeric field, or one
// huge quoted field (with escaped quotes and separators inside).
std::string LongLine(std::mt19937_64* rng, char sep) {
  constexpr size_t kBytes = 100 * 1024;
  std::string line;
  switch (Below(rng, 3)) {
    case 0:
      while (line.size() < kBytes) {
        line += StrFormat("%.17g", static_cast<double>((*rng)() % 100000) /
                                       7.0);
        line.push_back(sep);
      }
      line.pop_back();
      break;
    case 1:
      line = "1.";
      line.append(kBytes, static_cast<char>('0' + Below(rng, 10)));
      break;
    default:
      line = "\"";
      while (line.size() < kBytes) line += "a\"\"b" + std::string(1, sep);
      line += "\"";
      break;
  }
  return line + "\n";
}

void Mutate(std::mt19937_64* rng, char sep, std::string* text) {
  const size_t pos = Below(rng, text->size() + 1);
  switch (Below(rng, 12)) {
    case 0:  // byte flip
      if (!text->empty()) {
        (*text)[Below(rng, text->size())] = static_cast<char>(Below(rng, 256));
      }
      break;
    case 1:
      text->insert(pos, "\"");
      break;
    case 2:
      text->insert(pos, "\"\"");
      break;
    case 3:
      text->insert(pos, 1, sep);
      break;
    case 4:
      text->insert(pos, "\r");
      break;
    case 5:
      text->insert(pos, 1, '\0');
      break;
    case 6:  // truncation
      text->resize(pos);
      break;
    case 7: {  // duplicated line
      if (text->empty()) break;
      const auto [begin, end] = LineAround(*text, Below(rng, text->size()));
      const std::string copy = text->substr(begin, end - begin);
      text->insert(end, copy);
      break;
    }
    case 8: {  // 100 KB line (rarer than the rest: each one costs ~1 ms)
      if (Below(rng, 3) != 0) break;
      const size_t at = LineAround(*text, pos).first;
      text->insert(at, LongLine(rng, sep));
      break;
    }
    case 9: {  // quote one whole field, maybe with an escaped quote inside
      if (text->empty()) break;
      size_t begin = pos;
      while (begin > 0 && (*text)[begin - 1] != sep &&
             (*text)[begin - 1] != '\n') {
        --begin;
      }
      size_t end = pos;
      while (end < text->size() && (*text)[end] != sep &&
             (*text)[end] != '\n') {
        ++end;
      }
      if (Below(rng, 2) == 0) text->insert(end, "\"\"");
      text->insert(end, "\"");
      text->insert(begin, "\"");
      break;
    }
    case 10:  // whitespace the trimmer must strip (or \v, which it keeps)
      text->insert(pos, std::string(1, " \t\v"[Below(rng, 3)]));
      break;
    default: {  // a number strtod takes but the fast parse does not
      static const char* const kOddNumbers[] = {"+1", "0x1p3", "nan", "-inf",
                                                "1e400", "1e-400"};
      text->insert(pos, kOddNumbers[Below(rng, 6)]);
      break;
    }
  }
}

std::string ExpectSameAsReference(const std::string& path,
                                  const CsvOptions& options) {
  const Result<Dataset> got = ReadCsv(path, options);
  const Result<Dataset> want = ReferenceReadCsv(path, options);
  if (got.ok() != want.ok()) {
    return "ok mismatch: got " +
           (got.ok() ? std::string("OK") : got.status().ToString()) +
           ", want " +
           (want.ok() ? std::string("OK") : want.status().ToString());
  }
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return "status mismatch: got " + got.status().ToString() + ", want " +
             want.status().ToString();
    }
    return "";
  }
  if (got->size() != want->size() || got->dims() != want->dims()) {
    return StrFormat("shape mismatch: got %zux%zu, want %zux%zu",
                     got->size(), got->dims(), want->size(), want->dims());
  }
  if (got->column_names() != want->column_names()) {
    return "column names differ";
  }
  const size_t cells = want->size() * want->dims();
  if (cells > 0 &&
      std::memcmp(got->flat(), want->flat(), cells * sizeof(double)) != 0) {
    return "cell bits differ";
  }
  return "";
}

TEST_F(CsvTest, MutationFuzzMatchesReferenceReader) {
  std::mt19937_64 rng(4180);
  const std::string path = TempPath("fuzz.csv");
  constexpr int kCases = 700;
  for (int c = 0; c < kCases; ++c) {
    const size_t n = 1 + Below(&rng, 30);
    const uint64_t seed = rng();
    Dataset base;
    switch (c % 3) {
      case 0:
        base = GenerateUniform(n, 1 + Below(&rng, 5), seed);
        break;
      case 1:
        base = GenerateDotLike(n, seed);
        break;
      default:
        base = GenerateBnLike(n, seed);
        break;
    }
    CsvOptions write;
    write.separator = c % 5 == 4 ? ';' : ',';
    write.has_header = c % 7 != 6;
    ASSERT_TRUE(WriteCsv(path, base, write).ok());
    std::string text;
    {
      std::ifstream in(path, std::ios::binary);
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    const size_t mutations = Below(&rng, 4);  // 0: the valid file itself
    for (size_t m = 0; m < mutations; ++m) {
      Mutate(&rng, write.separator, &text);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    for (bool header : {true, false}) {
      for (bool skip : {false, true}) {
        CsvOptions read;
        read.separator = write.separator;
        read.has_header = header;
        read.skip_bad_rows = skip;
        const std::string diff = ExpectSameAsReference(path, read);
        ASSERT_EQ(diff, "") << "case " << c << " header=" << header
                            << " skip=" << skip << "\n--- file ---\n"
                            << text.substr(0, 2000);
      }
    }
  }
}

}  // namespace
}  // namespace data
}  // namespace rrr
