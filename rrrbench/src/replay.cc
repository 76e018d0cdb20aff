// The in-process replay: re-runs every wire request against the same CSVs,
// calling each layer's public entry point in the order RrrEngine does, with
// the daemon's default EngineOptions. Its answers are the oracle for the
// wire replies; in trace mode it runs serially and records a span (with
// exact topk scan-counter deltas) around every layer call.
#include <atomic>
#include <memory>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "bench.h"
#include "common/parallel.h"
#include "core/dataset_updates.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "data/csv.h"
#include "topk/score_kernel.h"

namespace rrrbench {

double Now();  // run clock, defined in main.cc

namespace {

using rrr::Result;
using rrr::Status;
using rrr::core::Algorithm;
using rrr::core::PreparedDataset;

/// The spans of one replayed request; span 0 is its root.
struct Trace {
  bool enabled = false;
  int64_t request = -1;
  double origin = 0.0;
  std::vector<Span> spans;

  /// Runs `fn` inside a child span of the root named `name`.
  template <typename Fn>
  auto Timed(const char* name, Fn&& fn) -> decltype(fn()) {
    if (!enabled) return fn();
    Span span;
    span.name = name;
    span.request = request;
    span.parent = 0;
    const rrr::topk::ScanStats before = rrr::topk::ScanCountersSnapshot();
    span.start = Now() - origin;
    auto result = fn();
    span.end = Now() - origin;
    const rrr::topk::ScanStats after = rrr::topk::ScanCountersSnapshot();
    span.blocks_scanned = after.blocks_scanned - before.blocks_scanned;
    span.blocks_skipped = after.blocks_skipped - before.blocks_skipped;
    spans.push_back(std::move(span));
    return result;
  }

  /// Opens the root span (index 0) the later Timed calls hang under.
  void OpenRoot(const std::string& name) {
    if (!enabled) return;
    Span root;
    root.name = name;
    root.request = request;
    root.start = Now() - origin;
    spans.push_back(std::move(root));
  }

  /// Attaches a fact to the span just closed.
  void Fact(const char* key, double value) {
    if (enabled && !spans.empty()) spans.back().facts.emplace_back(key, value);
  }
};

class Replayer {
 public:
  // Trace mode, and any workload with writes, replays serially in version
  // order with the daemon's thread defaults, so each version inherits the
  // incrementally maintained artifacts of the one before, as in the daemon.
  // Static workloads' oracle runs requests in parallel with serial layers
  // instead (results are thread-invariant).
  Replayer(const WorkloadPlan& plan, bool trace, size_t threads)
      : plan_(plan),
        trace_(trace),
        threads_(trace || plan.writer ? 1 : std::max<size_t>(1, threads)),
        layer_threads_(threads_ == 1 ? 0 : 1),
        origin_(Now()) {}

  Status Load(std::vector<Span>* spans) {
    for (const DatasetPlan& ds : plan_.datasets) {
      Trace trace = NewTrace(-1);
      trace.OpenRoot("dataset.load");
      Result<rrr::data::Dataset> data = trace.Timed(
          "data.csv_read", [&] { return rrr::data::ReadCsv(ds.csv_path); });
      if (!data.ok()) return data.status();
      Source& source = sources_[ds.name];
      source.dims = ds.d;
      if (ds.dynamic) {
        Result<std::shared_ptr<rrr::core::DynamicDataset>> dyn =
            trace.Timed("prepare.dataset", [&] {
              return rrr::core::DynamicDataset::Create(
                  std::move(data).value());
            });
        if (!dyn.ok()) return dyn.status();
        source.dynamic = std::move(dyn).value();
      } else {
        Result<std::shared_ptr<const PreparedDataset>> prepared =
            trace.Timed("prepare.dataset", [&] {
              return PreparedDataset::Create(std::move(data).value());
            });
        if (!prepared.ok()) return prepared.status();
        source.fixed = std::move(prepared).value();
      }
      trace.Fact("dims", static_cast<double>(ds.d));
      if (trace_) trace.spans[0].end = Now() - origin_;
      Collect(&trace, spans);
    }
    return Status::OK();
  }

  void Run(const std::vector<Exchange>& exchanges, ReplayResult* result) {
    result->answers.assign(exchanges.size(), Answer());
    exchanges_ = &exchanges;
    result_ = result;
    // Reads grouped by the version their reply named (static data: 0);
    // writes apply in the order the single writer sent them.
    std::map<std::pair<std::string, uint64_t>, std::vector<size_t>> reads;
    std::vector<size_t> writes;
    for (size_t i = 0; i < exchanges.size(); ++i) {
      const Exchange& ex = exchanges[i];
      if (!ex.reply.ok) continue;  // already a failure; nothing to check
      if (ex.request.verb == Verb::kAppend ||
          ex.request.verb == Verb::kDelete) {
        writes.push_back(i);
      } else {
        reads[{ex.request.dataset, ex.reply.VersionOrdinal().value_or(0)}]
            .push_back(i);
      }
    }
    // Serially, each version's reads run right after the write that
    // published it; the parallel oracle (static data only) queues them all.
    std::vector<Pending> pending;
    auto run_reads = [&](const std::string& name, uint64_t ordinal) {
      auto it = reads.find({name, ordinal});
      if (it == reads.end()) return;
      const std::shared_ptr<const PreparedDataset> snapshot =
          sources_.at(name).Snapshot();
      for (size_t i : it->second) pending.push_back({i, snapshot});
      reads.erase(it);
      if (threads_ == 1) RunPending(&pending);
    };
    for (const auto& entry : sources_) {
      run_reads(entry.first, entry.second.Snapshot()->version().ordinal);
    }
    for (size_t i : writes) {
      const Exchange& ex = exchanges[i];
      Answer& answer = result->answers[i];
      ReplayOne(i, nullptr, &answer);
      if (answer.error.empty()) run_reads(ex.request.dataset, answer.version);
    }
    RunPending(&pending);
    // Reads whose version the write log never reproduced.
    for (const auto& entry : reads) {
      for (size_t i : entry.second) {
        result->answers[i].replayed = true;
        result->answers[i].error = "version not reproduced by the write log";
      }
    }
  }

 private:
  struct Source {
    size_t dims = 0;
    std::shared_ptr<const PreparedDataset> fixed;
    std::shared_ptr<rrr::core::DynamicDataset> dynamic;

    std::shared_ptr<const PreparedDataset> Snapshot() const {
      return fixed != nullptr ? fixed : dynamic->Snapshot();
    }
  };
  struct Pending {
    size_t index;
    std::shared_ptr<const PreparedDataset> snapshot;
  };
  using MemoKey = std::tuple<std::string, uint64_t, size_t, int>;
  using EvalKey =
      std::tuple<std::string, uint64_t, std::vector<int32_t>, size_t>;

  Trace NewTrace(int64_t request) const {
    Trace trace;
    trace.enabled = trace_;
    trace.request = request;
    trace.origin = origin_;
    return trace;
  }

  void Collect(Trace* trace, std::vector<Span>* spans) {
    if (!trace_) return;
    std::lock_guard<std::mutex> lock(spans_mu_);
    for (Span& span : trace->spans) spans->push_back(std::move(span));
  }

  /// Replays the queued reads on `threads_` workers, in queue order, each
  /// dropping its snapshot pin when done; empties the queue.
  void RunPending(std::vector<Pending>* pending) {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t j = next++; j < pending->size(); j = next++) {
        Pending& item = (*pending)[j];
        ReplayOne(item.index, item.snapshot.get(),
                  &result_->answers[item.index]);
        item.snapshot.reset();
      }
    };
    const size_t n = std::min(threads_, pending->size());
    std::vector<std::thread> pool;
    for (size_t t = 1; t < n; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
    pending->clear();
  }

  /// Replays one exchange under a root span named after its verb; reads
  /// run against `snapshot`, writes against the dynamic dataset.
  void ReplayOne(size_t index, const PreparedDataset* snapshot,
                 Answer* answer) {
    const Exchange& ex = (*exchanges_)[index];
    const Request& req = ex.request;
    answer->replayed = true;
    Trace trace = NewTrace(static_cast<int64_t>(index));
    trace.OpenRoot(std::string("request.") + VerbName(req.verb));
    const rrr::topk::ScanStats before = rrr::topk::ScanCountersSnapshot();
    const Source& source = sources_.at(req.dataset);
    Status status = Status::OK();
    switch (req.verb) {
      case Verb::kSolve: {
        Algorithm forced = Algorithm::kAuto;
        if (!req.algo.empty()) {
          Result<Algorithm> parsed = rrr::core::ParseAlgorithm(req.algo);
          if (!parsed.ok()) {
            status = parsed.status();
            break;
          }
          forced = parsed.value();
        }
        Result<std::vector<int32_t>> ids =
            Solve(&trace, *snapshot, req.dataset, req.k, forced,
                  &answer->computed);
        if (ids.ok()) answer->ids = std::move(ids).value();
        status = ids.status();
        break;
      }
      case Verb::kDual:
        status = Dual(&trace, *snapshot, req.dataset, req.max_size, answer);
        break;
      case Verb::kEval: {
        // The daemon has no EVAL memo; the replay keeps one so repeated
        // audits of an unedited representative are checked at no cost.
        const EvalKey key{req.dataset, snapshot->version().ordinal, req.ids,
                          req.k};
        {
          std::lock_guard<std::mutex> lock(memo_mu_);
          auto it = eval_memo_.find(key);
          if (it != eval_memo_.end()) {
            answer->rank_regret = it->second.first;
            answer->exact = it->second.second;
            break;
          }
        }
        status = Eval(&trace, *snapshot, req.ids, req.k, answer);
        answer->computed = true;
        if (status.ok()) {
          std::lock_guard<std::mutex> lock(memo_mu_);
          eval_memo_.emplace(key, std::make_pair(answer->rank_regret,
                                                 answer->exact));
        }
        break;
      }
      case Verb::kAppend:
      case Verb::kDelete: {
        Result<rrr::DatasetVersion> version =
            req.verb == Verb::kAppend
                ? trace.Timed("updates.append",
                              [&] {
                                return source.dynamic->BatchAppend(req.rows);
                              })
                : trace.Timed("updates.delete", [&] {
                    return source.dynamic->Delete(req.delete_id);
                  });
        if (version.ok()) answer->version = version.value().ordinal;
        answer->computed = true;
        status = version.status();
        break;
      }
    }
    if (!status.ok()) answer->error = status.ToString();
    if (trace_) {
      const rrr::topk::ScanStats after = rrr::topk::ScanCountersSnapshot();
      Span& root = trace.spans[0];
      root.end = Now() - origin_;
      root.blocks_scanned = after.blocks_scanned - before.blocks_scanned;
      root.blocks_skipped = after.blocks_skipped - before.blocks_skipped;
      root.facts.emplace_back("dims", static_cast<double>(source.dims));
      root.facts.emplace_back("computed", answer->computed ? 1.0 : 0.0);
      for (size_t s = 1; s < trace.spans.size(); ++s) {
        answer->child_seconds += trace.spans[s].Seconds();
      }
      Collect(&trace, &result_->spans);
    }
  }

  rrr::ExecContext Context() const {
    rrr::ExecContext ctx;
    ctx.threads = layer_threads_;
    return ctx;
  }

  size_t Threads() const {
    return rrr::ResolveThreads(
        Context().ThreadsOver(engine_.defaults.threads));
  }

  Result<std::shared_ptr<const rrr::core::CandidateIndex>> Candidates(
      Trace* trace, const PreparedDataset& p, size_t k) {
    bool hit = false;
    Result<std::shared_ptr<const rrr::core::CandidateIndex>> index =
        trace->Timed("prepare.candidate_index", [&] {
          return p.SharedCandidateIndex(k, Threads(), Context(), &hit);
        });
    trace->Fact("hit", hit ? 1 : 0);
    if (index.ok()) {
      const std::shared_ptr<const rrr::core::CandidateIndex>& built =
          index.value();
      trace->Fact("declined", built == nullptr ? 1 : 0);
      if (built != nullptr) {
        trace->Fact("band_frac", static_cast<double>(built->band_size()) /
                                     static_cast<double>(p.size()));
      }
    }
    return index;
  }

  /// The engine asks for the candidate index first, and its build makes
  /// the columnar mirror on the way; asking for the mirror first does the
  /// same work in the same order but gives the transpose its own span.
  Result<std::shared_ptr<const rrr::data::ColumnBlocks>> Blocks(
      Trace* trace, const PreparedDataset& p) {
    bool hit = false;
    Result<std::shared_ptr<const rrr::data::ColumnBlocks>> blocks =
        trace->Timed("prepare.column_blocks", [&] {
          return p.SharedColumnBlocks(Threads(), Context(), &hit);
        });
    trace->Fact("hit", hit ? 1 : 0);
    return blocks;
  }

  /// RrrEngine::Solve: algorithm resolution, the per-(version, k,
  /// algorithm) memo, then RunAlgorithm's layer calls.
  Result<std::vector<int32_t>> Solve(Trace* trace, const PreparedDataset& p,
                                     const std::string& name, size_t k,
                                     Algorithm forced, bool* computed) {
    if (k == 0) return Status::InvalidArgument("k must be >= 1");
    Algorithm algo = forced;
    if (algo == Algorithm::kAuto) {
      algo = p.dims() == 2   ? Algorithm::k2dRrr
             : k == 1        ? Algorithm::kConvexMaxima
                             : Algorithm::kMdRc;
    }
    const MemoKey key{name, p.version().ordinal, k, static_cast<int>(algo)};
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }
    *computed = true;
    Result<std::vector<int32_t>> ids = RunAlgorithm(trace, p, k, algo);
    if (ids.ok()) {
      std::lock_guard<std::mutex> lock(memo_mu_);
      memo_.emplace(key, ids.value());
    }
    return ids;
  }

  Result<std::vector<int32_t>> RunAlgorithm(Trace* trace,
                                            const PreparedDataset& p, size_t k,
                                            Algorithm algo) {
    const rrr::core::RrrOptions& defaults = engine_.defaults;
    const rrr::data::Dataset& data = p.dataset();
    const rrr::ExecContext ctx = Context();
    switch (algo) {
      case Algorithm::k2dRrr: {
        std::shared_ptr<const rrr::data::ColumnBlocks> blocks;
        RRR_ASSIGN_OR_RETURN(blocks, Blocks(trace, p));
        std::shared_ptr<const rrr::core::CandidateIndex> candidates;
        RRR_ASSIGN_OR_RETURN(candidates, Candidates(trace, p, k));
        return trace->Timed("rrr2d", [&] {
          return rrr::core::Solve2dRrr(data, k, defaults.rrr2d, ctx, p.sweep(),
                                       candidates.get(), blocks.get());
        });
      }
      case Algorithm::kMdRrr: {
        std::shared_ptr<const rrr::core::CandidateIndex> candidates;
        RRR_ASSIGN_OR_RETURN(candidates, Candidates(trace, p, k));
        rrr::core::KSetSamplerOptions sampler = defaults.sampler;
        if (layer_threads_ != 0) sampler.threads = layer_threads_;
        bool hit = false;
        Result<std::shared_ptr<const rrr::core::KSetSampleResult>> sample =
            trace->Timed("kset.sample", [&] {
              return p.SharedKSets(k, sampler, ctx, &hit, candidates.get());
            });
        trace->Fact("hit", hit ? 1 : 0);
        if (!sample.ok()) return sample.status();
        trace->Fact("draws",
                    static_cast<double>(sample.value()->samples_drawn));
        return trace->Timed("hitting", [&] {
          return rrr::core::SolveMdrrr(data, sample.value()->ksets,
                                       defaults.mdrrr, ctx);
        });
      }
      case Algorithm::kMdRc: {
        std::shared_ptr<const rrr::data::ColumnBlocks> blocks;
        RRR_ASSIGN_OR_RETURN(blocks, Blocks(trace, p));
        std::shared_ptr<const rrr::core::CandidateIndex> candidates;
        RRR_ASSIGN_OR_RETURN(candidates, Candidates(trace, p, k));
        rrr::core::MdrcOptions mdrc = defaults.mdrc;
        if (layer_threads_ != 0) mdrc.threads = layer_threads_;
        rrr::core::MdrcStats stats;
        Result<std::vector<int32_t>> ids = trace->Timed("mdrc", [&] {
          return rrr::core::SolveMdrc(data, k, mdrc, &stats, ctx,
                                      p.corner_cache(), candidates.get(),
                                      blocks.get());
        });
        trace->Fact("nodes", static_cast<double>(stats.nodes));
        trace->Fact("corner_evals", static_cast<double>(stats.corner_evals));
        trace->Fact("corner_hits", static_cast<double>(stats.cache_hits));
        return ids;
      }
      case Algorithm::kConvexMaxima: {
        bool hit = false;
        Result<std::shared_ptr<const std::vector<int32_t>>> maxima =
            trace->Timed("prepare.convex_maxima", [&] {
              return p.SharedConvexMaxima(Threads(), ctx, &hit);
            });
        trace->Fact("hit", hit ? 1 : 0);
        if (!maxima.ok()) return maxima.status();
        // The maxima build filled the skyline cell; this read is a hit.
        Result<std::shared_ptr<const std::vector<int32_t>>> skyline =
            p.SharedSkyline(ctx);
        if (skyline.ok()) {
          trace->Fact("skyline_size",
                      static_cast<double>(skyline.value()->size()));
        }
        return *maxima.value();
      }
      case Algorithm::kAuto:
        break;
    }
    return Status::Internal("unresolved algorithm");
  }

  /// RrrEngine::SolveDual: binary search over memoized Solve probes.
  Status Dual(Trace* trace, const PreparedDataset& p, const std::string& name,
              size_t max_size, Answer* answer) {
    if (max_size == 0) return Status::InvalidArgument("max_size must be >= 1");
    size_t lo = 1;
    size_t hi = p.size();
    size_t exhausted = 0;
    bool found = false;
    while (lo <= hi) {
      const size_t mid = lo + (hi - lo) / 2;
      ++answer->dual_probes;
      bool computed = false;
      Result<std::vector<int32_t>> probe =
          Solve(trace, p, name, mid, Algorithm::kAuto, &computed);
      answer->computed |= computed;
      if (!probe.ok() &&
          probe.status().code() == rrr::StatusCode::kResourceExhausted) {
        ++exhausted;
        lo = mid + 1;
        continue;
      }
      if (!probe.ok()) return probe.status();
      if (probe.value().size() <= max_size) {
        answer->dual_k = mid;
        answer->ids = std::move(probe).value();
        found = true;
        if (mid == 1) break;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    if (!found) {
      return exhausted == answer->dual_probes
                 ? Status::ResourceExhausted("every dual probe exhausted")
                 : Status::NotFound("no k met the size budget");
    }
    return Status::OK();
  }

  /// RrrEngine::Evaluate: exact sweep in 2D, the sampled estimator above.
  Status Eval(Trace* trace, const PreparedDataset& p,
              const std::vector<int32_t>& ids, size_t k, Answer* answer) {
    if (k == 0) return Status::InvalidArgument("k must be >= 1");
    const rrr::ExecContext ctx = Context();
    if (p.dims() == 2) {
      Result<int64_t> regret = trace->Timed("eval.exact2d", [&] {
        return rrr::core::SweepExactRankRegret2D(p.dataset(), ids, ctx,
                                                 p.sweep());
      });
      if (!regret.ok()) return regret.status();
      answer->rank_regret = regret.value();
      answer->exact = true;
      return Status::OK();
    }
    std::shared_ptr<const rrr::data::ColumnBlocks> blocks;
    RRR_ASSIGN_OR_RETURN(blocks, Blocks(trace, p));
    std::shared_ptr<const rrr::core::CandidateIndex> candidates;
    RRR_ASSIGN_OR_RETURN(candidates, Candidates(trace, p, k));
    rrr::core::SampledRegretOptions sampled;
    sampled.num_functions = engine_.eval_num_functions;
    sampled.seed = engine_.eval_seed;
    sampled.threads =
        layer_threads_ != 0 ? layer_threads_ : engine_.defaults.threads;
    rrr::core::SampledRegretStats stats;
    Result<int64_t> regret = trace->Timed("eval.sampled", [&] {
      return rrr::core::SampledRankRegretEstimate(p.dataset(), ids, sampled,
                                                  ctx, candidates.get(),
                                                  &stats, blocks.get());
    });
    trace->Fact("band_scans", static_cast<double>(stats.skyband_scans));
    trace->Fact("fallbacks", static_cast<double>(stats.full_scan_fallbacks));
    if (!regret.ok()) return regret.status();
    answer->rank_regret = regret.value();
    answer->exact = false;
    return Status::OK();
  }

  const WorkloadPlan& plan_;
  const bool trace_;
  const size_t threads_;
  const size_t layer_threads_;
  const double origin_;
  const rrr::core::EngineOptions engine_{};
  std::map<std::string, Source> sources_;
  const std::vector<Exchange>* exchanges_ = nullptr;
  ReplayResult* result_ = nullptr;
  std::mutex memo_mu_;
  std::map<MemoKey, std::vector<int32_t>> memo_;
  std::map<EvalKey, std::pair<int64_t, bool>> eval_memo_;
  std::mutex spans_mu_;
};

}  // namespace

rrr::Result<ReplayResult> Replay(const WorkloadPlan& plan,
                                 const std::vector<Exchange>& exchanges,
                                 bool trace, size_t threads) {
  ReplayResult result;
  Replayer replayer(plan, trace, threads);
  RRR_RETURN_IF_ERROR(replayer.Load(&result.spans));
  replayer.Run(exchanges, &result);
  return result;
}

}  // namespace rrrbench
