// Self-test of the benchmark's own invariants: generated CSVs round-trip
// bit-exactly (the wire oracle compares replies bit for bit), a seed fixes
// the request stream, the p90 tail rule, and the request/reply wire text.
// Exits non-zero on any failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.h"
#include "data/csv.h"

namespace rrrbench {
double Now() { return 0.0; }
}  // namespace rrrbench

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void CsvRoundTripIsBitExact(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const std::string& workload : rrrbench::WorkloadNames()) {
    rrrbench::WorkloadPlan plan = rrrbench::MakePlan(workload, 7).value();
    for (const rrrbench::DatasetPlan& ds : plan.datasets) {
      const rrr::data::Dataset data = ds.Generate();
      const std::string path = dir + "/" + ds.name + ".csv";
      Expect(rrr::data::WriteCsv(path, data).ok(), "WriteCsv");
      const rrr::Result<rrr::data::Dataset> back = rrr::data::ReadCsv(path);
      Expect(back.ok() && back.value().size() == data.size() &&
                 back.value().dims() == data.dims(),
             "ReadCsv shape");
      if (!back.ok()) continue;
      bool exact = true;
      for (size_t i = 0; i < data.size() * data.dims(); ++i) {
        exact = exact && BitEqual(back.value().flat()[i], data.flat()[i]);
      }
      Expect(exact, ("CSV round trip bit-exact: " + workload + "/" + ds.name)
                        .c_str());
      std::filesystem::remove(path);
    }
  }
}

void AppendLineRoundTripsDoubles() {
  rrrbench::WriterPlan writer;
  writer.dataset = "live";
  writer.d = 4;
  writer.batch = 3;
  writer.seed = 11;
  const rrrbench::Request append = writer.Tick(5, 100).first;
  const std::string line = append.Line();
  const std::string rows = line.substr(line.find("rows=") + 5);
  size_t at = 0;
  bool exact = true;
  for (const std::vector<double>& row : append.rows) {
    for (double value : row) {
      char* end = nullptr;
      exact = exact && BitEqual(std::strtod(rows.c_str() + at, &end), value);
      at = static_cast<size_t>(end - rows.c_str()) + 1;
    }
  }
  Expect(exact, "APPEND rows= text round-trips bit-exactly");
}

void SameSeedSameRequests() {
  // plane_2d's SOLVE order is its seeded input: equal seeds, equal streams.
  auto first_solves = [](uint64_t seed) {
    rrrbench::WorkloadPlan plan = rrrbench::MakePlan("plane_2d", seed).value();
    std::string lines;
    for (int i = 0; i < 20; ++i) lines += plan.sessions[0](nullptr)->Line();
    return lines;
  };
  Expect(first_solves(7) == first_solves(7), "same seed, same requests");
  Expect(first_solves(7) != first_solves(8), "other seed, other requests");
}

void TailRule() {
  // p90 keeps >= 10 samples beyond it from 100 samples on, not below.
  Expect(rrrbench::SamplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  Expect(rrrbench::SamplesBeyond(99, 0.9) == 9, "99 samples: 9 beyond p90");
  Expect(rrrbench::TailQuantile(100) == 0.9, "p90 reportable at 100");
  Expect(rrrbench::TailQuantile(99) == 0.75, "falls back to p75 at 99");
  Expect(rrrbench::TailQuantile(30) == 0.5, "falls back to p50 at 30");
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  Expect(rrrbench::Percentile(values, 0.9) == 90.0, "nearest-rank p90");
  Expect(rrrbench::Percentile(values, 0.5) == 50.0, "nearest-rank p50");
}

void ReplyParsing() {
  const rrrbench::Reply ok = rrrbench::Reply::Parse(
      "OK k=5 version=v3.17 seconds=0.000120 size=3 ids=1,20,300");
  Expect(ok.ok && ok.Ids() == std::vector<int32_t>({1, 20, 300}), "ids");
  Expect(ok.VersionOrdinal() == 17u, "version ordinal");
  const rrrbench::Reply err =
      rrrbench::Reply::Parse("ERR code=busy msg=queue full (16)");
  Expect(!err.ok && err.error_code == "busy", "error code");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: rrrbench_test SCRATCH_DIR\n");
    return 2;
  }
  CsvRoundTripIsBitExact(argv[1]);
  AppendLineRoundTripsDoubles();
  SameSeedSameRequests();
  TailRule();
  ReplyParsing();
  if (failures == 0) std::printf("rrrbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
