// Flight search (the paper's §1 motivation): a site wants a short list of
// flights such that whatever linear trade-off a traveler has between the
// ranking criteria, a flight from their personal top-k is on it.
//
//   ./build/examples/flight_search [n] [k]
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "core/engine.h"
#include "data/generators.h"
#include "geometry/dominance.h"
#include "topk/rank.h"
#include "topk/scoring.h"

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 5000;
  const size_t k = argc > 2 ? static_cast<size_t>(std::atoll(argv[2]))
                            : std::max<size_t>(1, n / 100);

  // Synthetic stand-in for the DOT on-time performance database (8 columns,
  // normalized higher-is-better). The shortlist ranks on the four criteria
  // travelers actually weigh: departure delay, arrival delay, air time and
  // distance.
  const rrr::data::Dataset all_columns = rrr::data::GenerateDotLike(n, 2024);
  rrr::Result<rrr::data::Dataset> projected =
      all_columns.Project({0, 3, 4, 5});
  if (!projected.ok()) {
    std::fprintf(stderr, "%s\n", projected.status().ToString().c_str());
    return 1;
  }
  const rrr::data::Dataset& flights = *projected;
  std::printf("flights: %zu, ranking criteria: %zu, k: %zu\n",
              flights.size(), flights.dims(), k);

  // How big would the classic alternatives be?
  const size_t skyline_size =
      rrr::geometry::Skyline(flights.flat(), flights.size(), flights.dims())
          .size();
  std::printf("skyline (maxima for all monotone rankings): %zu tuples\n",
              skyline_size);

  // Rank-regret representative via MDRC, on a prepared engine (a real
  // flight site would keep the engine alive and serve every visitor's k
  // from the shared caches).
  rrr::core::EngineOptions engine_opts;
  engine_opts.defaults.algorithm = rrr::core::Algorithm::kMdRc;
  rrr::Result<std::shared_ptr<rrr::core::RrrEngine>> engine =
      rrr::core::RrrEngine::Create(rrr::data::Dataset(flights), engine_opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  rrr::Result<rrr::core::QueryResult> res = (*engine)->Solve(k);
  if (!res.ok()) {
    std::fprintf(stderr, "%s\n", res.status().ToString().c_str());
    return 1;
  }
  std::printf("rank-regret representative: %zu tuples (%.3f s)\n",
              res->representative.size(), res->diagnostics.seconds);

  // The same query again is a memo hit — the prepared-engine payoff.
  rrr::Result<rrr::core::QueryResult> repeat = (*engine)->Solve(k);
  if (repeat.ok() && repeat->diagnostics.result_from_cache) {
    std::printf("repeat visitor served from cache in %.6f s\n",
                repeat->diagnostics.seconds);
  }

  // Spot-check a few traveler profiles over (dep_delay, arrival_delay,
  // air_time, distance).
  struct Profile {
    const char* name;
    std::vector<double> weights;
  };
  const std::vector<Profile> profiles = {
      {"business  (delay-averse)", {3.0, 3.0, 0.5, 0.5}},
      {"leisure   (distance-led)", {0.5, 1.0, 2.0, 3.0}},
      {"balanced  (all equal)   ", {1.0, 1.0, 1.0, 1.0}},
  };
  // The engine's prepared copy of the flights carries their columnar
  // mirror, which the rank scans run over.
  const rrr::data::ColumnBlocks& mirror =
      (*engine)->prepared().column_blocks();
  for (const auto& profile : profiles) {
    rrr::topk::LinearFunction f(profile.weights);
    const int64_t best_rank =
        rrr::topk::MinRankOfSubset(mirror, f, res->representative);
    std::printf("  %s -> best shortlisted flight ranks #%lld of %zu\n",
                profile.name, static_cast<long long>(best_rank),
                flights.size());
  }

  // And the global certificate, estimated over 10,000 random profiles by
  // the engine's evaluator.
  rrr::Result<rrr::core::EvalReport> audit =
      (*engine)->Evaluate(res->representative, k);
  if (audit.ok()) {
    std::printf(
        "estimated rank-regret over %zu random profiles: %lld "
        "(requested k = %zu, theoretical bound d*k = %zu)\n",
        audit->diagnostics.eval_functions_sampled,
        static_cast<long long>(audit->rank_regret), k, flights.dims() * k);
  }
  return 0;
}
