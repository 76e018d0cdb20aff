#include "figure_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_json.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"

namespace rrr {
namespace bench {

bool FullScale() {
  const char* env = std::getenv("RRR_BENCH_FULL");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

size_t EvalFunctions() { return FullScale() ? 10000 : 1000; }

void PrintFigureHeader(const std::string& slug, const std::string& figure,
                       const std::string& title,
                       const std::string& columns) {
  std::printf("# %s\n", figure.c_str());
  std::printf("# %s\n", title.c_str());
  std::printf("# scale: %s (set RRR_BENCH_FULL=1 for paper-scale sweeps)\n",
              FullScale() ? "FULL" : "laptop default");
  std::printf("%s\n", columns.c_str());
  std::fflush(stdout);
  BenchJson::Global().Begin(slug, title);
  BenchJson::Global().SetColumns(Split(columns, ','));
}

void PrintRow(const std::vector<std::string>& cells) {
  std::printf("%s\n", Join(cells, ",").c_str());
  std::fflush(stdout);
  BenchJson::Global().AddRow(cells);
}

std::vector<size_t> NSweep(size_t full_max) {
  std::vector<size_t> sweep;
  const size_t max_n = FullScale() ? full_max : 16000;
  for (size_t n = 1000; n <= max_n; n *= 4) sweep.push_back(n);
  if (sweep.back() != max_n) sweep.push_back(max_n);
  return sweep;
}

std::vector<size_t> NSweep2D(size_t full_max) {
  if (!FullScale()) return {1000, 4000, 8000};
  std::vector<size_t> sweep;
  for (size_t n = 1000; n <= full_max; n *= 10) sweep.push_back(n);
  if (sweep.back() != full_max) sweep.push_back(full_max);
  return sweep;
}

size_t DefaultN() { return FullScale() ? 10000 : 2000; }

std::string MdComparisonColumns(const std::string& x) {
  return "algorithm," + x +
         ",time_sec,sampled_rank_regret,output_size,threads";
}

void RunMdComparisonRow(const data::Dataset& dataset,
                        const MdComparisonConfig& config) {
  const size_t threads = ResolveThreads(config.threads);
  const std::string threads_cell = StrFormat("%zu", threads);
  core::SampledRegretOptions eval_opts;
  eval_opts.num_functions = EvalFunctions();
  eval_opts.seed = config.eval_seed;
  eval_opts.threads = threads;

  // MDRC.
  core::MdrcOptions mdrc_opts;
  mdrc_opts.threads = threads;
  Stopwatch timer;
  Result<std::vector<int32_t>> mdrc =
      core::SolveMdrc(dataset, config.k, mdrc_opts);
  const double mdrc_time = timer.ElapsedSeconds();
  RRR_CHECK_OK(mdrc.status());
  const int64_t mdrc_regret =
      *core::SampledRankRegretEstimate(dataset, *mdrc, eval_opts);
  PrintRow({"MDRC", config.label, StrFormat("%.4f", mdrc_time),
            StrFormat("%lld", static_cast<long long>(mdrc_regret)),
            StrFormat("%zu", mdrc->size()), threads_cell});

  // MDRRR = K-SETr + hitting set (Section 6 pipeline).
  if (config.run_mdrrr) {
    core::KSetSamplerOptions sampler_opts;
    sampler_opts.threads = threads;
    timer.Restart();
    Result<std::vector<int32_t>> mdrrr =
        core::SolveMdrrrSampled(dataset, config.k, {}, sampler_opts);
    const double mdrrr_time = timer.ElapsedSeconds();
    RRR_CHECK_OK(mdrrr.status());
    const int64_t mdrrr_regret =
        *core::SampledRankRegretEstimate(dataset, *mdrrr, eval_opts);
    PrintRow({"MDRRR", config.label, StrFormat("%.4f", mdrrr_time),
              StrFormat("%lld", static_cast<long long>(mdrrr_regret)),
              StrFormat("%zu", mdrrr->size()), threads_cell});
  } else {
    PrintRow({"MDRRR", config.label, "did-not-scale", "-", "-",
              threads_cell});
  }

  // HD-RRMS at MDRC's output size (the paper's comparison protocol).
  baseline::HdRrmsOptions hd_opts;
  hd_opts.num_functions = FullScale() ? 300 : 200;
  hd_opts.binary_search_steps = 12;
  timer.Restart();
  Result<baseline::HdRrmsResult> hd =
      baseline::SolveHdRrms(dataset, mdrc->size(), hd_opts);
  const double hd_time = timer.ElapsedSeconds();
  RRR_CHECK_OK(hd.status());
  const int64_t hd_regret =
      *core::SampledRankRegretEstimate(dataset, hd->representative, eval_opts);
  PrintRow({"HD-RRMS", config.label, StrFormat("%.4f", hd_time),
            StrFormat("%lld", static_cast<long long>(hd_regret)),
            StrFormat("%zu", hd->representative.size()), threads_cell});
}

}  // namespace bench
}  // namespace rrr
