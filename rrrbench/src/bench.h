// Shared types of the rrr_serverd benchmark: the seeded workload plans, the
// wire exchanges they produce, the in-process replay that checks and traces
// them, and the small statistics helpers the report needs.
#ifndef RRRBENCH_BENCH_H_
#define RRRBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace rrrbench {

// ---------------------------------------------------------------- requests

enum class Verb { kSolve, kEval, kDual, kAppend, kDelete };
const char* VerbName(Verb verb);

/// Every query carries this deadline; the client's socket timeout sits above
/// it, so a request the daemon cannot preempt still ends the run.
inline constexpr uint64_t kDeadlineMs = 20000;
inline constexpr double kSocketTimeoutSeconds = 40.0;

/// One wire request as sent, plus what the replay needs to re-run it.
struct Request {
  Verb verb = Verb::kSolve;
  std::string dataset;
  size_t k = 0;                    // SOLVE, EVAL
  size_t max_size = 0;             // DUAL
  std::string algo;                // SOLVE override; empty = daemon default
  std::vector<int32_t> ids;        // EVAL
  bool edited = false;             // EVAL of a one-id edit of a SOLVE reply
  size_t solve_ordinal = 0;        // EVAL: version ordinal its ids came from
  std::vector<std::vector<double>> rows;  // APPEND
  int32_t delete_id = -1;                 // DELETE

  /// The request line (no newline).
  std::string Line() const;
};

/// A parsed reply line plus client-side timing (seconds on the run clock).
struct Reply {
  bool ok = false;
  bool timed_out = false;  // socket timeout or broken connection
  std::string error_code;  // ERR code=...
  std::map<std::string, std::string> fields;
  double due = 0.0;  // when the request was due (open loop) or sent
  double sent = 0.0;
  double received = 0.0;

  static Reply Parse(const std::string& line);
  const std::string* Find(const std::string& key) const;
  std::vector<int32_t> Ids() const;
  /// Ordinal of the reply's `version=v<origin>.<ordinal>`; nullopt if absent.
  std::optional<uint64_t> VersionOrdinal() const;
  double RttSeconds() const { return received - sent; }
};

struct Exchange {
  bool measured = false;  // sent during the measured phase (not warm-up)
  Request request;
  Reply reply;
};

// -------------------------------------------------------------- workloads

/// A dataset is a fixed population: the same rows for every seed, so the
/// work per request (and the spread between seeds) does not move with the
/// seed. Seeds vary the request stream instead.
struct DatasetPlan {
  std::string name;
  std::string generator;  // uniform|correlated|anticorrelated|dot2|bn
  size_t n = 0;
  size_t d = 0;
  uint64_t population = 0;  // generator seed
  bool dynamic = false;
  std::string csv_path;  // filled in when written

  rrr::data::Dataset Generate() const;
};

/// A closed-loop session: returns the next request given the previous
/// exchange (null before the first), or nullopt when the session is done.
using Script = std::function<std::optional<Request>(const Exchange* last)>;

/// The open-loop writer: one APPEND batch then one DELETE per tick.
struct WriterPlan {
  std::string dataset;
  double period_seconds = 0.1;
  size_t batch = 8;
  size_t d = 0;
  size_t initial_rows = 0;
  uint64_t seed = 0;
  /// The two writes of tick `tick`, given the row count before it.
  std::pair<Request, Request> Tick(size_t tick, size_t rows_before) const;
};

struct WorkloadPlan {
  std::string name;
  std::vector<DatasetPlan> datasets;
  std::vector<Request> warmup;  // sent in order on the set-up connection
  std::vector<Script> sessions;
  std::optional<WriterPlan> writer;
  /// Fresh-daemon set-ups per run; setup_s is their median. Seven, because
  /// a set-up without warm-up takes only tens of milliseconds.
  int setup_rounds = 7;
  /// MDRC / 2DRRR representative bound factor for unedited EVALs: the
  /// reply must satisfy rank_regret <= factor * k (2 for 2D, d for MDRC).
  size_t BoundFactor(const std::string& dataset) const;
  const DatasetPlan* Find(const std::string& dataset) const;
};

const std::vector<std::string>& WorkloadNames();
rrr::Result<WorkloadPlan> MakePlan(const std::string& workload, uint64_t seed);

// ------------------------------------------------------------------- wire

struct ServerStats {
  std::map<std::string, uint64_t> counters;
  uint64_t Get(const std::string& key) const;
};

/// What one fresh daemon did: set-up time, the exchanges, and its end state.
struct WireRun {
  std::vector<double> setup_seconds;  // one per set-up round
  std::vector<Exchange> exchanges;    // warm-up of the last round + measured
  double phase_start = 0.0;
  double phase_end = 0.0;
  bool aborted = false;  // a client timeout or broken connection
  std::string abort_reason;
  ServerStats stats;
  double peak_rss_mb = 0.0;
};

/// Launches `serverd` once per set-up round, registers every dataset from
/// CSV, warms it, then drives the sessions (and writer) for `seconds`.
rrr::Result<WireRun> RunWire(const WorkloadPlan& plan,
                             const std::string& serverd,
                             const std::string& out_dir, double seconds);

// ----------------------------------------------------------------- replay

/// One traced call, recorded around a layer's public entry point.
struct Span {
  std::string name;
  int64_t request = -1;  // index into the exchange list
  int parent = -1;       // index into the same request's spans; -1 = root
  double start = 0.0;    // seconds since the replay began
  double end = 0.0;
  uint64_t blocks_scanned = 0;  // topk::ScanCountersSnapshot deltas
  uint64_t blocks_skipped = 0;
  std::vector<std::pair<std::string, double>> facts;

  double Seconds() const { return end - start; }
  double Fact(const std::string& key, double fallback = 0.0) const;
};

/// The replay's answer to one exchange.
struct Answer {
  bool replayed = false;
  std::string error;  // non-empty when the replay itself failed
  std::vector<int32_t> ids;   // SOLVE / DUAL
  size_t dual_k = 0;          // DUAL
  size_t dual_probes = 0;     // DUAL
  int64_t rank_regret = 0;    // EVAL
  bool exact = false;         // EVAL
  uint64_t version = 0;       // APPEND / DELETE: ordinal published
  bool computed = false;      // did layer work (not a memo hit)
  double child_seconds = 0.0; // sum of the request's layer spans
};

struct ReplayResult {
  std::vector<Answer> answers;  // parallel to the exchange list
  std::vector<Span> spans;      // trace mode only
};

/// Replays `exchanges` in-process against the plan's CSVs. Trace mode runs
/// serially with the daemon's default EngineOptions and records spans;
/// otherwise requests run on `threads` workers as a pure oracle.
rrr::Result<ReplayResult> Replay(const WorkloadPlan& plan,
                                 const std::vector<Exchange>& exchanges,
                                 bool trace, size_t threads);

// ------------------------------------------------------------------ stats

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 for an empty list.
double Percentile(std::vector<double> values, double q);
/// Samples strictly beyond the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);
/// The highest of p90/p75/p50 that keeps >= 10 samples beyond it.
double TailQuantile(size_t n);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
std::string JsonEscape(const std::string& text);
/// A double with every significant digit (%.17g), "0" for non-finite.
std::string JsonNumber(double value);

}  // namespace rrrbench

#endif  // RRRBENCH_BENCH_H_
