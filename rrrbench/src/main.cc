// rrrbench: the repository benchmark. Generates one workload's inputs from
// a seed, drives a fresh rrr_serverd over the wire, checks every reply
// against an in-process replay, and prints the metrics. The last stdout
// line is one JSON object: end-to-end metrics, or with --trace 1 the
// per-layer metrics of a serial traced replay (spans go to spans.jsonl).
//
// Usage: rrrbench --workload NAME --seed N --seconds S --trace 0|1
//                 --serverd PATH --out DIR [--source TEXT]
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "bench.h"
#include "data/csv.h"
#include "topk/score_kernel.h"

#ifndef RRRBENCH_BUILD_TYPE
#define RRRBENCH_BUILD_TYPE "unknown"
#endif

namespace rrrbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // sample count or derivation, for the human lines
};

/// The end-to-end metrics BENCHMARK.json lists: every workload reports each
/// of these, none is ever 0, and their spread between seeds stays inside the
/// 0.25 bound on the shared reference host (the latencies and ok_qps of
/// cold_explore and stream_churn did not; see README).
const std::set<std::string>& ContractMetrics() {
  static const std::set<std::string> names = {"setup_s", "rep_size_mean",
                                              "peak_rss_mb"};
  return names;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serverd;
  std::string out;
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--serverd") {
      options->serverd = value;
    } else if (key == "--out") {
      options->out = value;
    } else if (key == "--source") {
      options->source = value;
    } else {
      std::fprintf(stderr, "rrrbench: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "rrrbench: every flag takes one value\n");
    return false;
  }
  return !options->workload.empty() && !options->serverd.empty() &&
         !options->out.empty() && options->seconds > 0;
}

// ------------------------------------------------------------- provenance

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Provenance(const Options& options, const WorkloadPlan& plan) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask = "unknown";
  int allowed = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    allowed = CPU_COUNT(&set);
    uint64_t bits = 0;
    for (int c = 0; c < 64; ++c) {
      if (CPU_ISSET(c, &set)) bits |= uint64_t{1} << c;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(bits));
    mask = buf;
  }
  std::string out = "{";
  out += "\"source\": \"" + JsonEscape(options.source) + "\"";
  out += ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\"";
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"affinity_cpus\": " + std::to_string(allowed);
  out += ", \"affinity_mask\": \"" + mask + "\"";
  out += std::string(", \"kernel_tier\": \"") +
         rrr::topk::ScoreKernelPathName(rrr::topk::ActiveScoreKernelPath()) +
         "\"";
  out += ", \"compiler\": \"" + JsonEscape(__VERSION__) + "\"";
  out += std::string(", \"build_type\": \"") + RRRBENCH_BUILD_TYPE + "\"";
  out += ", \"workload\": \"" + plan.name + "\"";
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + JsonNumber(options.seconds);
  out += ", \"sessions\": " + std::to_string(plan.sessions.size());
  out += ", \"open_loop_writer\": " + std::string(plan.writer ? "true" : "false");
  out += ", \"setup_rounds\": " + std::to_string(plan.setup_rounds);
  out += "}";
  return out;
}

// ----------------------------------------------------------------- checks

struct CheckResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, size_t> by_reason;
  std::vector<std::string> examples;

  void Fail(const std::string& reason, const std::string& detail) {
    ++failed;
    ++by_reason[reason];
    if (examples.size() < 8) examples.push_back(reason + ": " + detail);
  }
};

bool SameIds(std::vector<int32_t> a, std::vector<int32_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

uint64_t FieldUint(const Reply& reply, const std::string& key) {
  const std::string* text = reply.Find(key);
  return text == nullptr ? UINT64_MAX : std::strtoull(text->c_str(), nullptr, 10);
}

/// Every reply against the replay: bit-identical answers, the representative
/// bound on unedited audits, DUAL size budgets and write versions.
CheckResult Check(const WorkloadPlan& plan, const WireRun& wire,
                  const ReplayResult& replay) {
  CheckResult check;
  for (size_t i = 0; i < wire.exchanges.size(); ++i) {
    const Exchange& ex = wire.exchanges[i];
    const Request& req = ex.request;
    const Answer& ans = replay.answers[i];
    ++check.attempted;
    const std::string what = std::string(VerbName(req.verb)) + " " +
                             req.dataset + " #" + std::to_string(i);
    if (!ex.reply.ok) {
      check.Fail(ex.reply.error_code, what);
      continue;
    }
    if (!ans.replayed || !ans.error.empty()) {
      check.Fail("replay_failed", what + " " + ans.error);
      continue;
    }
    switch (req.verb) {
      case Verb::kSolve: {
        const std::vector<int32_t> ids = ex.reply.Ids();
        if (!SameIds(ids, ans.ids) || FieldUint(ex.reply, "size") != ids.size()) {
          check.Fail("solve_mismatch", what);
        }
        break;
      }
      case Verb::kDual: {
        const std::vector<int32_t> ids = ex.reply.Ids();
        if (!SameIds(ids, ans.ids) || FieldUint(ex.reply, "k") != ans.dual_k) {
          check.Fail("dual_mismatch", what);
        } else if (ids.size() > req.max_size) {
          check.Fail("dual_over_budget", what);
        }
        break;
      }
      case Verb::kEval: {
        const uint64_t regret = FieldUint(ex.reply, "rank_regret");
        const bool exact = FieldUint(ex.reply, "exact") == 1;
        const bool within = FieldUint(ex.reply, "within_k") == 1;
        if (static_cast<int64_t>(regret) != ans.rank_regret ||
            exact != ans.exact || within != (regret <= req.k)) {
          check.Fail("eval_mismatch", what);
        } else if (!req.edited &&
                   ex.reply.VersionOrdinal().value_or(0) == req.solve_ordinal &&
                   regret > plan.BoundFactor(req.dataset) * req.k) {
          check.Fail("regret_bound", what + " rank_regret=" +
                                         std::to_string(regret));
        }
        break;
      }
      case Verb::kAppend:
      case Verb::kDelete:
        if (ex.reply.VersionOrdinal() != ans.version) {
          check.Fail("write_version", what);
        }
        break;
    }
  }
  return check;
}

// ---------------------------------------------------------------- metrics

double FieldSeconds(const Reply& reply) {
  const std::string* text = reply.Find("seconds");
  return text == nullptr ? 0.0 : std::strtod(text->c_str(), nullptr);
}

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& ms) {
  if (ms.empty()) return;
  const std::string n = "n=" + std::to_string(ms.size());
  out->push_back({prefix + "_p50_ms", "ms", Percentile(ms, 0.5), n});
  const double tail = TailQuantile(ms.size());
  if (tail == 0.9) {
    out->push_back({prefix + "_p90_ms", "ms", Percentile(ms, 0.9), n});
  } else {
    // Too few samples for ten beyond p90: report p90 for the contract, and
    // name the percentile that does have a tail.
    out->push_back({prefix + "_p90_ms", "ms", Percentile(ms, 0.9),
                    n + " (<10 beyond p90; p" +
                        std::to_string(static_cast<int>(tail * 100)) + "=" +
                        JsonNumber(Percentile(ms, tail)) + ")"});
  }
}

std::vector<Metric> EndToEnd(const WireRun& wire, const CheckResult& check) {
  std::map<Verb, std::vector<double>> latency_ms;
  std::vector<double> write_ms;
  std::vector<double> rep_sizes;
  double regret_over_k = -1.0;
  size_t ok = 0;
  for (const Exchange& ex : wire.exchanges) {
    if (!ex.measured || !ex.reply.ok) continue;
    ++ok;
    const Verb verb = ex.request.verb;
    if (verb == Verb::kAppend || verb == Verb::kDelete) {
      write_ms.push_back(1000.0 * (ex.reply.received - ex.reply.due));
      continue;
    }
    latency_ms[verb].push_back(1000.0 * ex.reply.RttSeconds());
    if (verb == Verb::kSolve) {
      rep_sizes.push_back(static_cast<double>(ex.reply.Ids().size()));
    }
    if (verb == Verb::kEval && !ex.request.edited &&
        ex.reply.VersionOrdinal().value_or(0) == ex.request.solve_ordinal) {
      regret_over_k = std::max(
          regret_over_k, static_cast<double>(FieldUint(ex.reply, "rank_regret")) /
                             static_cast<double>(ex.request.k));
    }
  }
  std::vector<Metric> out;
  out.push_back({"setup_s", "s", Median(wire.setup_seconds),
                 "median of " + std::to_string(wire.setup_seconds.size()) +
                     " set-ups"});
  const double phase = wire.phase_end - wire.phase_start;
  out.push_back({"ok_qps", "req/s", phase > 0 ? ok / phase : 0.0,
                 std::to_string(ok) + " OK replies in " + JsonNumber(phase) +
                     " s"});
  AddLatency(&out, "solve", latency_ms[Verb::kSolve]);
  AddLatency(&out, "eval", latency_ms[Verb::kEval]);
  AddLatency(&out, "dual", latency_ms[Verb::kDual]);
  AddLatency(&out, "write", write_ms);
  out.push_back({"fail_frac", "ratio",
                 check.attempted == 0
                     ? 0.0
                     : static_cast<double>(check.failed) / check.attempted,
                 std::to_string(check.failed) + "/" +
                     std::to_string(check.attempted)});
  if (!rep_sizes.empty()) {
    out.push_back({"rep_size_mean", "ids", Mean(rep_sizes),
                   "n=" + std::to_string(rep_sizes.size())});
  }
  if (regret_over_k >= 0) {
    out.push_back({"regret_over_k_max", "ratio", regret_over_k,
                   "unedited EVALs"});
  }
  out.push_back({"peak_rss_mb", "MiB", wire.peak_rss_mb, "daemon VmHWM"});
  return out;
}

std::vector<Metric> PerLayer(const WireRun& wire, const ReplayResult& replay) {
  std::vector<Metric> out;
  auto add = [&out](const std::string& name, const std::string& unit,
                    double value, const std::string& note = "") {
    out.push_back({name, unit, value, note});
  };
  // service: wire-side facts.
  std::vector<double> self_ms;
  std::vector<double> lag_ms;
  for (const Exchange& ex : wire.exchanges) {
    if (!ex.measured || !ex.reply.ok) continue;
    const Verb verb = ex.request.verb;
    if (verb == Verb::kSolve || verb == Verb::kDual) {
      self_ms.push_back(1000.0 *
                        (ex.reply.RttSeconds() - FieldSeconds(ex.reply)));
    } else if (verb == Verb::kAppend || verb == Verb::kDelete) {
      lag_ms.push_back(1000.0 * (ex.reply.sent - ex.reply.due));
    }
  }
  const ServerStats& stats = wire.stats;
  const double queries = static_cast<double>(stats.Get("queries_total"));
  add("service.self_ms_p50", "ms", Percentile(self_ms, 0.5),
      "RTT - reply seconds, n=" + std::to_string(self_ms.size()));
  add("service.memo_hit_ratio", "ratio",
      queries > 0 ? stats.Get("memo_hits") / queries : 0.0, "STATS");
  add("service.cache_bytes", "bytes",
      static_cast<double>(stats.Get("cache_bytes")), "STATS at run end");
  add("service.busy_rejections", "count",
      static_cast<double>(stats.Get("busy_rejections")), "STATS");
  add("service.deadline_exceeded", "count",
      static_cast<double>(stats.Get("deadline_exceeded")), "STATS");

  // engine: reply seconds against the replay's layer spans.
  std::vector<double> engine_self_ms;
  std::vector<double> probes;
  double covered = 0.0;
  double replied = 0.0;
  for (size_t i = 0; i < wire.exchanges.size(); ++i) {
    const Exchange& ex = wire.exchanges[i];
    const Answer& ans = replay.answers[i];
    if (!ex.reply.ok || !ans.replayed) continue;
    if (ex.request.verb == Verb::kDual) {
      probes.push_back(static_cast<double>(ans.dual_probes));
    }
    if ((ex.request.verb == Verb::kSolve || ex.request.verb == Verb::kDual) &&
        ans.computed) {
      const double seconds = FieldSeconds(ex.reply);
      engine_self_ms.push_back(1000.0 * (seconds - ans.child_seconds));
      covered += ans.child_seconds;
      replied += seconds;
    }
  }
  add("engine.self_ms", "ms", Median(engine_self_ms),
      "reply seconds - replay spans, n=" +
          std::to_string(engine_self_ms.size()));
  add("engine.dual_probes", "count", Mean(probes), "mean per DUAL");

  // Layer spans.
  std::map<std::string, std::vector<const Span*>> by_name;
  for (const Span& span : replay.spans) by_name[span.name].push_back(&span);
  auto spans = [&by_name](const std::string& name) {
    return by_name[name];
  };
  auto built_ms = [&](const std::string& name) {
    std::vector<double> ms;
    for (const Span* s : spans(name)) {
      if (s->Fact("hit") == 0) ms.push_back(1000.0 * s->Seconds());
    }
    return ms;
  };
  add("prepare.column_blocks_ms", "ms",
      Median(built_ms("prepare.column_blocks")), "median per build");
  add("prepare.candidate_index_ms", "ms",
      Median(built_ms("prepare.candidate_index")), "median per build");
  std::vector<double> band_fracs;
  double declines = 0;
  for (const Span* s : spans("prepare.candidate_index")) {
    if (s->Fact("hit") != 0) continue;
    declines += s->Fact("declined");
    if (s->Fact("declined") == 0) band_fracs.push_back(s->Fact("band_frac"));
  }
  add("prepare.candidate_index_declines", "count", declines, "builds declined");
  add("prepare.skyband_frac", "ratio", Mean(band_fracs), "band/n per build");
  add("prepare.convex_maxima_ms", "ms",
      Median(built_ms("prepare.convex_maxima")), "median per build");
  std::vector<double> skylines;
  for (const Span* s : spans("prepare.convex_maxima")) {
    if (s->Fact("hit") == 0) skylines.push_back(s->Fact("skyline_size"));
  }
  add("prepare.skyline_size", "ids", Mean(skylines), "mean per build");
  std::vector<double> sweep_ms;
  for (const Span* s : spans("prepare.dataset")) {
    if (s->Fact("dims") == 2) sweep_ms.push_back(1000.0 * s->Seconds());
  }
  add("prepare.sweep_ms", "ms", Median(sweep_ms),
      "2D PreparedDataset::Create, median");
  std::vector<double> csv_ms;
  for (const Span* s : spans("data.csv_read")) {
    csv_ms.push_back(1000.0 * s->Seconds());
  }
  add("data.csv_read_ms", "ms", Median(csv_ms), "median per dataset");

  std::vector<double> mdrc_ms;
  std::vector<double> nodes;
  double corner_hits = 0, corner_evals = 0;
  for (const Span* s : spans("mdrc")) {
    mdrc_ms.push_back(1000.0 * s->Seconds());
    nodes.push_back(s->Fact("nodes"));
    corner_hits += s->Fact("corner_hits");
    corner_evals += s->Fact("corner_evals");
  }
  add("mdrc.ms", "ms", Median(mdrc_ms), "median per solve");
  add("mdrc.nodes", "count", Mean(nodes), "mean per solve");
  add("mdrc.corner_hit_ratio", "ratio",
      corner_hits + corner_evals > 0
          ? corner_hits / (corner_hits + corner_evals)
          : 0.0);

  // topk: exact scan-counter deltas around each request that did work.
  std::vector<double> blocks;
  std::vector<double> bytes;
  double scanned = 0, skipped = 0;
  for (const Span& span : replay.spans) {
    if (span.parent != -1 || span.request < 0) continue;
    scanned += static_cast<double>(span.blocks_scanned);
    skipped += static_cast<double>(span.blocks_skipped);
    if (span.Fact("computed") == 0) continue;
    blocks.push_back(static_cast<double>(span.blocks_scanned));
    bytes.push_back(static_cast<double>(span.blocks_scanned) * 64.0 *
                    span.Fact("dims") * 8.0);
  }
  add("topk.blocks_scanned", "count", Mean(blocks), "mean per request");
  add("topk.block_skip_ratio", "ratio",
      scanned + skipped > 0 ? skipped / (scanned + skipped) : 0.0);
  add("topk.bytes_scanned", "B-computed", Mean(bytes),
      "computed: blocks x 64 rows x d x 8 B, mean per request");

  std::vector<double> sampled_ms;
  double band_scans = 0, fallbacks = 0;
  for (const Span* s : spans("eval.sampled")) {
    sampled_ms.push_back(1000.0 * s->Seconds());
    band_scans += s->Fact("band_scans");
    fallbacks += s->Fact("fallbacks");
  }
  add("eval.sampled_ms", "ms", Median(sampled_ms), "median per EVAL");
  add("eval.band_ratio", "ratio",
      band_scans + fallbacks > 0 ? band_scans / (band_scans + fallbacks)
                                 : 0.0);
  auto median_ms = [&](const std::string& name) {
    std::vector<double> ms;
    for (const Span* s : spans(name)) ms.push_back(1000.0 * s->Seconds());
    return Median(ms);
  };
  add("eval.exact2d_ms", "ms", median_ms("eval.exact2d"), "median per EVAL");
  add("rrr2d.ms", "ms", median_ms("rrr2d"), "median per solve");
  add("kset.sample_ms", "ms", Median(built_ms("kset.sample")),
      "median per sample");
  std::vector<double> draws;
  for (const Span* s : spans("kset.sample")) {
    if (s->Fact("hit") == 0) draws.push_back(s->Fact("draws"));
  }
  add("kset.draws", "count", Mean(draws), "mean per sample");
  add("hitting.ms", "ms", median_ms("hitting"), "median per solve");
  add("updates.append_ms", "ms", median_ms("updates.append"), "median");
  add("updates.delete_ms", "ms", median_ms("updates.delete"), "median");
  add("loadgen.write_lag_ms_p90", "ms", Percentile(lag_ms, 0.9),
      "n=" + std::to_string(lag_ms.size()));
  add("trace.coverage", "ratio", replied > 0 ? covered / replied : 0.0,
      "replay spans / reply seconds");
  return out;
}

// ----------------------------------------------------------------- output

void WriteSpans(const std::string& path, const WireRun& wire,
                const ReplayResult& replay) {
  std::ofstream out(path);
  for (const Span& span : replay.spans) {
    out << "{\"name\": \"" << span.name << "\", \"request\": " << span.request;
    if (span.request >= 0) {
      const Exchange& ex = wire.exchanges[static_cast<size_t>(span.request)];
      out << ", \"verb\": \"" << VerbName(ex.request.verb)
          << "\", \"dataset\": \"" << ex.request.dataset << "\"";
    }
    out << ", \"parent\": " << span.parent
        << ", \"start\": " << JsonNumber(span.start)
        << ", \"end\": " << JsonNumber(span.end)
        << ", \"blocks_scanned\": " << span.blocks_scanned
        << ", \"blocks_skipped\": " << span.blocks_skipped << ", \"facts\": {";
    for (size_t f = 0; f < span.facts.size(); ++f) {
      out << (f ? ", " : "") << "\"" << span.facts[f].first
          << "\": " << JsonNumber(span.facts[f].second);
    }
    out << "}}\n";
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool contract) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics) {
    if (contract && ContractMetrics().count(m.name) == 0) continue;
    out += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

/// The wire run, the replay, the checks and the report, over CSVs already
/// written; returns the exit status.
int Measure(const Options& options, const WorkloadPlan& plan,
            const std::string& out_dir) {
  const std::string provenance = Provenance(options, plan);
  std::printf("# rrrbench %s seed=%llu seconds=%g trace=%d\n",
              plan.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("# provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  rrr::Result<WireRun> wired =
      RunWire(plan, options.serverd, out_dir, options.seconds);
  if (!wired.ok()) {
    std::fprintf(stderr, "rrrbench: wire run failed: %s\n",
                 wired.status().ToString().c_str());
    return 1;
  }
  const WireRun wire = std::move(wired).value();
  const double replay_start = Now();
  rrr::Result<ReplayResult> replayed =
      Replay(plan, wire.exchanges, options.trace,
             std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
  if (!replayed.ok()) {
    std::fprintf(stderr, "rrrbench: replay failed: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  const ReplayResult replay = std::move(replayed).value();
  std::printf("# replay %s in %.3f s\n",
              options.trace ? "(serial, traced)" : "(oracle)",
              Now() - replay_start);

  CheckResult check = Check(plan, wire, replay);
  if (wire.aborted) check.Fail("aborted", wire.abort_reason);
  const std::vector<Metric> e2e = EndToEnd(wire, check);
  std::vector<Metric> layers;
  if (options.trace) {
    layers = PerLayer(wire, replay);
    WriteSpans(out_dir + "/spans.jsonl", wire, replay);
    std::printf("# spans: %zu written to %s/spans.jsonl\n",
                replay.spans.size(), out_dir.c_str());
  }
  for (const Metric& m : e2e) {
    std::printf("metric %-22s %14.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("layer  %-32s %14.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const auto& reason : check.by_reason) {
    std::printf("# failures %s: %zu\n", reason.first.c_str(), reason.second);
  }
  for (const std::string& example : check.examples) {
    std::fprintf(stderr, "rrrbench: failed check: %s\n", example.c_str());
  }

  const bool correct = check.failed == 0;
  const std::string metrics =
      options.trace ? MetricsJson(layers, false) : MetricsJson(e2e, true);
  {
    std::ofstream result(out_dir + "/result.json");
    result << "{\"provenance\": " << provenance
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << check.attempted
           << ", \"failed\": " << check.failed
           << ", \"end_to_end\": " << MetricsJson(e2e, false)
           << ", \"per_layer\": " << MetricsJson(layers, false) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", check.attempted, check.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Run(const Options& options) {
  rrr::Result<WorkloadPlan> made = MakePlan(options.workload, options.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "rrrbench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  WorkloadPlan plan = std::move(made).value();
  std::filesystem::remove_all(options.out);
  std::filesystem::create_directories(options.out);
  const std::string out_dir = std::filesystem::absolute(options.out).string();
  int status = 0;
  for (DatasetPlan& ds : plan.datasets) {
    ds.csv_path = out_dir + "/" + ds.name + ".csv";
    const rrr::Status written = rrr::data::WriteCsv(ds.csv_path, ds.Generate());
    if (!written.ok()) {
      std::fprintf(stderr, "rrrbench: %s\n", written.ToString().c_str());
      status = 1;
      break;
    }
  }
  if (status == 0) status = Measure(options, plan, out_dir);
  for (const DatasetPlan& ds : plan.datasets) {
    std::filesystem::remove(ds.csv_path);
  }
  return status;
}

}  // namespace
}  // namespace rrrbench

int main(int argc, char** argv) {
  rrrbench::Options options;
  if (!rrrbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: rrrbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serverd PATH --out DIR [--source TEXT]\n");
    return 2;
  }
  return rrrbench::Run(options);
}
