// Threads x kernel-path x block-skip scaling bench: the multi-core and
// block-max-pruning perf story over the scanning entry points
// (TopKScan / CountOutranking / MaxScore). Emits BENCH_scaling.json.
//
// Workloads are deliberately skyband-hostile (uniform k=1000,
// anti-correlated data — where the candidate-index declines and full scans
// are all that's left) and function families are the solver-shaped sparse
// probes where block bounds are tight:
//   corner_topk   — top-k at the axis corners + the diagonal (the MDRC
//                   level-1 corner / convex-maxima certification probes)
//   rank_certify  — CountOutranking at each probe's exact top-1 (the
//                   evaluators' rank-certification shape: a near-top
//                   reference makes almost every block provably hopeless)
//   maxscore      — the regret-ratio numerator scan; the running max
//                   saturates early and the tail of the scan skips
// Dense random functions are also represented (corner_topk includes the
// diagonal) so the numbers show where pruning does NOT fire: per-block
// column maxima of d independent columns are far above any top-k
// threshold, and such blocks always scan.
//
// Axes swept per workload:
//   path    — scalar | avx2 (whatever the host supports), pinned
//             in-process via ForceScoreKernelPath
//   threads — 1, 2, 4 worker threads over the function tasks (flat on a
//             1-CPU container; the axis is recorded for multi-core runs)
//   skip    — BlockSkip::kForceOff (in-run baseline) vs kForceOn
// Every config's outputs are checked bit-identical to the first config's
// (the identical column is CHECKed, not asserted after the fact): skipping
// and path choice never change results, only wall time.
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "figure_util.h"
#include "geometry/vec.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"

namespace {

using namespace rrr;

/// Tasks per config: each function probe is replicated so the ParallelFor
/// has enough grains for the threads axis to mean something.
constexpr size_t kReplicas = 8;

data::Dataset MakeDataset(const std::string& dist, size_t n, size_t d) {
  if (dist == "uniform") return data::GenerateUniform(n, d, 42);
  return data::GenerateAnticorrelated(n, d, 42);
}

data::ColumnBlocks MustBuild(const data::Dataset& ds) {
  Result<data::ColumnBlocks> blocks = data::ColumnBlocks::Build(ds, 1);
  RRR_CHECK_OK(blocks.status());
  return std::move(blocks).value();
}

/// The sparse probe family: the d axis corners plus the diagonal — the
/// convex-maxima certification probes, and the corner set MDRC's first
/// partition level evaluates.
std::vector<topk::LinearFunction> CornerProbes(size_t d) {
  std::vector<topk::LinearFunction> probes;
  for (size_t j = 0; j <= d; ++j) {
    geometry::Vec w(d, j == d ? 1.0 / static_cast<double>(d) : 0.0);
    if (j < d) w[j] = 1.0;
    probes.emplace_back(std::move(w));
  }
  return probes;
}

struct ConfigResult {
  double seconds = 0.0;
  double checksum = 0.0;
  uint64_t blocks_scanned = 0;
  uint64_t blocks_skipped = 0;
};

/// Times `pass` (best of reps, one warm-up) and collects one stats pass.
/// `pass` runs all probe tasks under `threads` and returns a checksum;
/// every call must produce the identical checksum (bit-identity).
template <typename Pass>
ConfigResult RunConfig(size_t reps, const Pass& pass) {
  ConfigResult out;
  out.checksum = pass();  // warm-up
  double best = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    const double check = pass();
    const double t = timer.ElapsedSeconds();
    RRR_CHECK(check == out.checksum) << "checksum drifted across reps";
    if (r == 0 || t < best) best = t;
  }
  out.seconds = best;
  const topk::ScanStats before = topk::ScanCountersSnapshot();
  pass();  // dedicated stats pass (one full sweep's worth of counters)
  const topk::ScanStats after = topk::ScanCountersSnapshot();
  out.blocks_scanned = after.blocks_scanned - before.blocks_scanned;
  out.blocks_skipped = after.blocks_skipped - before.blocks_skipped;
  return out;
}

void Row(const std::string& workload, const std::string& dist, size_t n,
         size_t d, size_t k, const char* path, size_t threads,
         bool skip_on, const ConfigResult& r, double speedup) {
  const uint64_t total = r.blocks_scanned + r.blocks_skipped;
  const double frac =
      total == 0 ? 0.0
                 : static_cast<double>(r.blocks_skipped) /
                       static_cast<double>(total);
  bench::PrintRow({workload, dist, StrFormat("%zu", n), StrFormat("%zu", d),
                   StrFormat("%zu", k), path, StrFormat("%zu", threads),
                   skip_on ? "on" : "off", StrFormat("%.5f", r.seconds),
                   StrFormat("%llu",
                             static_cast<unsigned long long>(r.blocks_scanned)),
                   StrFormat("%llu",
                             static_cast<unsigned long long>(r.blocks_skipped)),
                   StrFormat("%.3f", frac), StrFormat("%.6g", r.checksum),
                   StrFormat("%.2f", speedup), "1"});
}

/// The paths this host can actually run, widest last.
std::vector<topk::ScoreKernelPath> HostPaths() {
  std::vector<topk::ScoreKernelPath> paths = {
      topk::ScoreKernelPath::kScalarBlocked};
  if (topk::ForceScoreKernelPath(topk::ScoreKernelPath::kAvx2) ==
      topk::ScoreKernelPath::kAvx2) {
    paths.push_back(topk::ScoreKernelPath::kAvx2);
  }
  return paths;
}

constexpr size_t kThreadsAxis[] = {1, 2, 4};

/// Sweeps path x threads x skip over `pass(threads, skip)` and prints one
/// row per config, with the same-(path, threads) skip-off time as the
/// in-run speedup baseline.
template <typename Pass>
void SweepConfigs(const std::string& workload, const std::string& dist,
                  size_t n, size_t d, size_t k, size_t reps,
                  const Pass& pass) {
  for (topk::ScoreKernelPath path : HostPaths()) {
    const topk::ScoreKernelPath installed = topk::ForceScoreKernelPath(path);
    RRR_CHECK(installed == path);
    const char* path_name = topk::ScoreKernelPathName(path);
    for (size_t threads : kThreadsAxis) {
      const ConfigResult off = RunConfig(
          reps, [&] { return pass(threads, topk::BlockSkip::kForceOff); });
      const ConfigResult on = RunConfig(
          reps, [&] { return pass(threads, topk::BlockSkip::kForceOn); });
      RRR_CHECK(on.checksum == off.checksum)
          << workload << ": skip-on diverged from skip-off";
      Row(workload, dist, n, d, k, path_name, threads, false, off, 1.0);
      Row(workload, dist, n, d, k, path_name, threads, true, on,
          on.seconds > 0.0 ? off.seconds / on.seconds : 0.0);
    }
  }
}

/// corner_topk: TopKScan at every corner probe. The per-task results are
/// pinned against the first config's (ids, in order — bit-identity).
void CornerTopK(const std::string& dist, size_t n, size_t d, size_t k,
                size_t reps) {
  const data::Dataset ds = MakeDataset(dist, n, d);
  const data::ColumnBlocks blocks = MustBuild(ds);
  const std::vector<topk::LinearFunction> probes = CornerProbes(d);
  std::vector<std::vector<int32_t>> reference(probes.size());
  std::atomic<bool> have_reference{false};

  SweepConfigs(
      "corner_topk", dist, n, d, k, reps,
      [&](size_t threads, topk::BlockSkip skip) -> double {
        std::atomic<uint64_t> check{0};
        ParallelFor(threads, probes.size() * kReplicas, [&](size_t task) {
          const size_t p = task % probes.size();
          const std::vector<int32_t> ids =
              topk::TopKScan(blocks, probes[p], k, skip);
          if (task < probes.size()) {
            if (!have_reference.load(std::memory_order_acquire)) {
              reference[p] = ids;
            } else {
              RRR_CHECK(ids == reference[p])
                  << "corner_topk: result diverged on probe " << p;
            }
          }
          check.fetch_add(static_cast<uint64_t>(ids.front()) +
                              static_cast<uint64_t>(ids.back()),
                          std::memory_order_relaxed);
        });
        have_reference.store(true, std::memory_order_release);
        return static_cast<double>(check.load() / kReplicas);
      });
}

/// rank_certify: CountOutranking at each probe's exact top-1 — the rank
/// certification the evaluators run against a good representative.
void RankCertify(const std::string& dist, size_t n, size_t d, size_t reps) {
  const data::Dataset ds = MakeDataset(dist, n, d);
  const data::ColumnBlocks blocks = MustBuild(ds);
  const std::vector<topk::LinearFunction> probes = CornerProbes(d);
  // Reference (score, id) per probe: its exact top-1 (skip-off; identical
  // either way, but the references must not depend on the sweep order).
  std::vector<int32_t> top_id(probes.size());
  std::vector<double> top_score(probes.size());
  for (size_t p = 0; p < probes.size(); ++p) {
    top_id[p] = topk::TopKScan(blocks, probes[p], 1,
                               topk::BlockSkip::kForceOff)
                    .front();
    top_score[p] = probes[p].Score(ds.row(static_cast<size_t>(top_id[p])));
  }
  std::vector<int64_t> reference(probes.size());
  std::atomic<bool> have_reference{false};

  SweepConfigs(
      "rank_certify", dist, n, d, /*k=*/1, reps,
      [&](size_t threads, topk::BlockSkip skip) -> double {
        std::atomic<uint64_t> check{0};
        ParallelFor(threads, probes.size() * kReplicas, [&](size_t task) {
          const size_t p = task % probes.size();
          const int64_t outranking = topk::CountOutranking(
              blocks, probes[p], top_score[p], top_id[p], skip);
          if (task < probes.size()) {
            if (!have_reference.load(std::memory_order_acquire)) {
              reference[p] = outranking;
            } else {
              RRR_CHECK(outranking == reference[p])
                  << "rank_certify: count diverged on probe " << p;
            }
          }
          check.fetch_add(static_cast<uint64_t>(outranking + 1),
                          std::memory_order_relaxed);
        });
        have_reference.store(true, std::memory_order_release);
        return static_cast<double>(check.load() / kReplicas);
      });
}

/// maxscore: the regret-ratio numerator scan at every corner probe.
void MaxScoreSweep(const std::string& dist, size_t n, size_t d, size_t reps) {
  const data::Dataset ds = MakeDataset(dist, n, d);
  const data::ColumnBlocks blocks = MustBuild(ds);
  const std::vector<topk::LinearFunction> probes = CornerProbes(d);
  std::vector<double> reference(probes.size());
  std::atomic<bool> have_reference{false};

  SweepConfigs(
      "maxscore", dist, n, d, /*k=*/1, reps,
      [&](size_t threads, topk::BlockSkip skip) -> double {
        std::atomic<uint64_t> check{0};
        ParallelFor(threads, probes.size() * kReplicas, [&](size_t task) {
          const size_t p = task % probes.size();
          const double best = topk::MaxScore(blocks, probes[p], skip);
          if (task < probes.size()) {
            if (!have_reference.load(std::memory_order_acquire)) {
              reference[p] = best;
            } else {
              RRR_CHECK(best == reference[p])
                  << "maxscore: max diverged on probe " << p;
            }
          }
          // Fixed-point fold keeps the checksum exact across threads.
          check.fetch_add(static_cast<uint64_t>(best * 1e6),
                          std::memory_order_relaxed);
        });
        have_reference.store(true, std::memory_order_release);
        return static_cast<double>(check.load() / kReplicas);
      });
}

}  // namespace

int main() {
  bench::PrintFigureHeader(
      "scaling", "scaling",
      "block-max pruned scans: threads x path x skip on/off "
      "(skip-off is the in-run baseline; identical=1 means the config's "
      "outputs matched the reference bit-for-bit)",
      "workload,dist,n,d,k,path,threads,skip,seconds,blocks_scanned,"
      "blocks_skipped,skip_frac,checksum,speedup_vs_skipoff,identical");

  const bool full = bench::FullScale();
  const size_t n = full ? 1'000'000 : 200'000;
  const size_t reps = full ? 7 : 5;

  // The acceptance workloads: skyband-hostile top-k (uniform k=1000,
  // anti-correlated) where the candidate index declines and block skipping
  // is the only pruning left.
  CornerTopK("uniform", n, 6, 1000, reps);
  CornerTopK("anticorrelated", n, 4, 100, reps);
  RankCertify("uniform", n, 8, reps);
  MaxScoreSweep("anticorrelated", n, 6, reps);
  return 0;
}
