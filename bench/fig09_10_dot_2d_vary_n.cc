// Figures 9 + 10: DOT dataset, 2D — efficiency and effectiveness of 2DRRR,
// MDRRR and MDRC while the dataset size n varies. k = 1% of n.
//
// Expected shape (paper §6.2): 2DRRR and MDRRR share the quadratic sweep and
// stop scaling (the paper cuts them at 100K); MDRC stays near-flat. All
// three keep the measured rank-regret at or below k (green line), and 2DRRR
// attains the optimal output size.
#include <algorithm>
#include <string>
#include <vector>
#include "common/string_util.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "core/kset_enum2d.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/rrr2d.h"
#include "data/generators.h"
#include "figure_util.h"

int main() {
  using namespace rrr;
  bench::PrintFigureHeader(
      "fig09_10_dot_2d_vary_n",
      "Figures 9 (time) + 10 (quality)",
      "DOT-like, d=2, k=1% of n, vary n",
      "algorithm,n,time_sec,exact_rank_regret,output_size");

  const size_t full_max = 400000;
  const data::Dataset all =
      data::GenerateDotLike(bench::FullScale() ? full_max : 8000, 42)
          .ProjectPrefix(2);
  // The quadratic sweep algorithms get the same cutoff as in the paper.
  const size_t sweep_cutoff = bench::FullScale() ? 100000 : 8000;

  for (size_t n : bench::NSweep2D(full_max)) {
    const data::Dataset ds = all.Head(n);
    const size_t k = std::max<size_t>(1, n / 100);

    auto report = [&](const char* name, double seconds,
                      const std::vector<int32_t>& rep) {
      // Exact (sweep) evaluation is itself quadratic; fall back to the
      // sampled estimator past the cutoff.
      int64_t regret_value = 0;
      if (ds.size() <= sweep_cutoff) {
        Result<int64_t> regret = core::SweepExactRankRegret2D(ds, rep);
        RRR_CHECK_OK(regret.status());
        regret_value = *regret;
      } else {
        core::SampledRegretOptions eval_opts;
        eval_opts.num_functions = bench::EvalFunctions();
        Result<int64_t> regret =
            core::SampledRankRegretEstimate(ds, rep, eval_opts);
        RRR_CHECK_OK(regret.status());
        regret_value = *regret;
      }
      bench::PrintRow({name, std::to_string(n), StrFormat("%.4f", seconds),
                       StrFormat("%lld", static_cast<long long>(regret_value)),
                       std::to_string(rep.size())});
    };

    if (n <= sweep_cutoff) {
      Stopwatch timer;
      Result<std::vector<int32_t>> rep = core::Solve2dRrr(ds, k);
      RRR_CHECK_OK(rep.status());
      report("2DRRR", timer.ElapsedSeconds(), *rep);

      timer.Restart();
      Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds, k);
      RRR_CHECK_OK(ksets.status());
      Result<std::vector<int32_t>> mdrrr = core::SolveMdrrr(ds, *ksets);
      RRR_CHECK_OK(mdrrr.status());
      report("MDRRR", timer.ElapsedSeconds(), *mdrrr);
    } else {
      bench::PrintRow({"2DRRR", std::to_string(n), "did-not-scale", "-",
                       "-"});
      bench::PrintRow({"MDRRR", std::to_string(n), "did-not-scale", "-",
                       "-"});
    }

    Stopwatch timer;
    Result<std::vector<int32_t>> mdrc = core::SolveMdrc(ds, k);
    RRR_CHECK_OK(mdrc.status());
    report("MDRC", timer.ElapsedSeconds(), *mdrc);
  }
  return 0;
}
