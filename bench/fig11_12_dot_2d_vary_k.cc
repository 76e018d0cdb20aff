// Figures 11 + 12: DOT dataset, 2D — efficiency and effectiveness of 2DRRR,
// MDRRR and MDRC while k varies; n fixed to the default.
//
// Expected shape: 2DRRR/MDRRR times dominated by the sweep (flat-ish in k),
// MDRC milliseconds; output sizes shrink as k grows; all rank-regrets stay
// at or below k.
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
  const size_t n = bench::FullScale() ? 10000 : 4000;
  bench::PrintFigureHeader(
      "fig11_12_dot_2d_vary_k",
      "Figures 11 (time) + 12 (quality)",
      StrFormat("DOT-like, d=2, n=%zu, vary k", n),
      "algorithm,k_percent,k,time_sec,exact_rank_regret,output_size");

  const data::Dataset ds = data::GenerateDotLike(n, 42).ProjectPrefix(2);
  const std::vector<double> k_percents = {0.0005, 0.002, 0.01, 0.1};

  for (double kp : k_percents) {
    const size_t k =
        std::max<size_t>(1, static_cast<size_t>(kp * static_cast<double>(n)));
    const std::string kp_str = StrFormat("%.2f%%", kp * 100.0);

    auto report = [&](const char* name, double seconds,
                      const std::vector<int32_t>& rep) {
      Result<int64_t> regret = core::SweepExactRankRegret2D(ds, rep);
      RRR_CHECK_OK(regret.status());
      bench::PrintRow({name, kp_str, std::to_string(k),
                       StrFormat("%.4f", seconds),
                       StrFormat("%lld", static_cast<long long>(*regret)),
                       std::to_string(rep.size())});
    };

    Stopwatch timer;
    Result<std::vector<int32_t>> rrr2d = core::Solve2dRrr(ds, k);
    RRR_CHECK_OK(rrr2d.status());
    report("2DRRR", timer.ElapsedSeconds(), *rrr2d);

    timer.Restart();
    Result<core::KSetCollection> ksets = core::EnumerateKSets2D(ds, k);
    RRR_CHECK_OK(ksets.status());
    Result<std::vector<int32_t>> mdrrr = core::SolveMdrrr(ds, *ksets);
    RRR_CHECK_OK(mdrrr.status());
    report("MDRRR", timer.ElapsedSeconds(), *mdrrr);

    timer.Restart();
    Result<std::vector<int32_t>> mdrc = core::SolveMdrc(ds, k);
    RRR_CHECK_OK(mdrc.status());
    report("MDRC", timer.ElapsedSeconds(), *mdrc);
  }
  return 0;
}
