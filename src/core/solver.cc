#include "core/solver.h"

#include <cctype>
#include <string>
#include <utility>

#include "core/engine.h"

namespace rrr {
namespace core {

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAuto:
      return "AUTO";
    case Algorithm::k2dRrr:
      return "2DRRR";
    case Algorithm::kMdRrr:
      return "MDRRR";
    case Algorithm::kMdRc:
      return "MDRC";
    case Algorithm::kConvexMaxima:
      return "MAXIMA";
  }
  return "UNKNOWN";
}

Result<Algorithm> ParseAlgorithm(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "auto") return Algorithm::kAuto;
  if (lower == "2drrr") return Algorithm::k2dRrr;
  if (lower == "mdrrr") return Algorithm::kMdRrr;
  if (lower == "mdrc") return Algorithm::kMdRc;
  if (lower == "maxima") return Algorithm::kConvexMaxima;
  return Status::InvalidArgument(
      "unknown algorithm '" + std::string(name) +
      "' (expected one of: auto, 2drrr, mdrrr, mdrc, maxima)");
}

Result<RrrResult> FindRankRegretRepresentative(const data::Dataset& dataset,
                                               const RrrOptions& options,
                                               const ExecContext& ctx) {
  // Thin wrapper over a temporary engine: prepare (validates and copies
  // the dataset), run one query, discard. Multi-query callers should hold
  // an RrrEngine to amortize the preparation and share the caches.
  EngineOptions engine_options;
  engine_options.defaults = options;
  std::shared_ptr<RrrEngine> engine;
  RRR_ASSIGN_OR_RETURN(
      engine, RrrEngine::Create(data::Dataset(dataset),
                                std::move(engine_options)));
  QueryOptions query;
  query.exec = ctx;
  query.use_cache = false;  // single query, nothing to reuse
  QueryResult result;
  RRR_ASSIGN_OR_RETURN(result, engine->Solve(options.k, query));
  RrrResult out;
  out.representative = std::move(result.representative);
  out.algorithm_used = result.diagnostics.algorithm_used;
  out.seconds = result.diagnostics.seconds;
  return out;
}

Result<DualResult> SolveDualProblem(const data::Dataset& dataset,
                                    size_t max_size,
                                    const RrrOptions& base_options,
                                    const ExecContext& ctx) {
  if (max_size == 0) return Status::InvalidArgument("max_size must be >= 1");
  // One temporary engine serves every probe of the binary search, so the
  // probes share the prepared artifacts (sweep, corner memo, samples) and
  // memoized results even through this one-shot entry point.
  EngineOptions engine_options;
  engine_options.defaults = base_options;
  std::shared_ptr<RrrEngine> engine;
  RRR_ASSIGN_OR_RETURN(
      engine, RrrEngine::Create(data::Dataset(dataset),
                                std::move(engine_options)));
  QueryOptions query;
  query.exec = ctx;
  return engine->SolveDual(max_size, query);
}

}  // namespace core
}  // namespace rrr
