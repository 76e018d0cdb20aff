// Skip-safety suite for block-max pruning: every scanning entry point
// (TopKScan / MaxScore / CountOutranking), which always prunes on the
// mirror's block bounds, returns EXACTLY (EXPECT_EQ, never a tolerance) what
// the brute-force row loops return — across dataset families chosen to
// stress the bounds (duplicates = score ties, constant columns = bounds
// exactly equal to every value, anti-correlated = adversarially flat score
// landscape), across kernel paths and thread counts, and under concurrent
// scans (the counters are relaxed atomics; TSan runs this file).
// The pruning may only change which blocks get scored, never what comes
// out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"
#include "test_util.h"

namespace rrr {
namespace topk {
namespace {

data::ColumnBlocks MustBuild(const data::Dataset& ds, size_t threads = 1) {
  Result<data::ColumnBlocks> blocks = data::ColumnBlocks::Build(ds, threads);
  RRR_CHECK(blocks.ok()) << blocks.status().ToString();
  return std::move(blocks).value();
}

struct Family {
  std::string name;
  data::Dataset data;
};

/// The bound-stressing families: ties (duplicate-heavy), bounds met with
/// equality by every lane (constant-column), flat score landscapes
/// (anticorrelated), near-identical columns (correlated), plain uniform.
std::vector<Family> Families(size_t n, size_t d, uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"uniform", data::GenerateUniform(n, d, seed)});
  families.push_back({"correlated", data::GenerateCorrelated(n, d, seed)});
  families.push_back(
      {"anticorrelated", data::GenerateAnticorrelated(n, d, seed)});
  {
    const data::Dataset pool = data::GenerateUniform(n / 8 + 2, d, seed + 1);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double* r = pool.row(i % pool.size());
      std::vector<double> row(r, r + d);
      for (double& v : row) v = std::round(v * 8.0) / 8.0;
      rows.push_back(std::move(row));
    }
    families.push_back({"duplicate-heavy", testing::MakeDataset(rows)});
  }
  {
    const data::Dataset base = data::GenerateUniform(n, d, seed + 2);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const double* r = base.row(i);
      std::vector<double> row(r, r + d);
      row[0] = 0.5;
      rows.push_back(std::move(row));
    }
    families.push_back({"constant-column", testing::MakeDataset(rows)});
  }
  return families;
}

/// Axis probes (zero weights — the bound term for a zero weight must stay
/// exactly zero), the diagonal, and random draws.
std::vector<LinearFunction> ProbeFunctions(size_t d, uint64_t seed) {
  std::vector<LinearFunction> funcs;
  for (size_t axis = 0; axis < d; ++axis) {
    geometry::Vec w(d, 0.0);
    w[axis] = 1.0;
    funcs.emplace_back(std::move(w));
  }
  funcs.emplace_back(geometry::Vec(d, 1.0));
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    funcs.emplace_back(rng.UnitWeightVector(static_cast<int>(d)));
  }
  return funcs;
}

/// Brute-force MaxScore oracle: the max of LinearFunction::Score over every
/// row of `source` (finite data).
double BruteMaxScore(const data::Dataset& source, const LinearFunction& f) {
  double best = f.Score(source.row(0));
  for (size_t i = 1; i < source.size(); ++i) {
    best = std::max(best, f.Score(source.row(i)));
  }
  return best;
}

/// The core check over one mirror: every entry point against the
/// brute-force oracles over the mirror's source, plus the block-accounting
/// invariant that every block is either scanned or skipped, never both or
/// neither.
void ExpectMatchesOracles(const data::ColumnBlocks& blocks,
                          const LinearFunction& f, const std::string& tag) {
  const size_t n = blocks.rows();
  const data::Dataset& source = *blocks.source();
  for (size_t k : {size_t{1}, size_t{13}, n / 2, n}) {
    if (k == 0) continue;
    ScanStats stats;
    EXPECT_EQ(TopKScan(blocks, f, k, &stats), testing::BruteTopK(source, f, k))
        << tag << " k=" << k;
    EXPECT_EQ(stats.blocks_scanned + stats.blocks_skipped, blocks.num_blocks())
        << tag << " k=" << k;
  }
  ScanStats max_stats;
  EXPECT_EQ(MaxScore(blocks, f, &max_stats), BruteMaxScore(source, f)) << tag;
  EXPECT_EQ(max_stats.blocks_scanned + max_stats.blocks_skipped,
            blocks.num_blocks())
      << tag;
  // Reference points spanning rank extremes: the top-1 (near-total
  // skipping), a middling row, the very last row (no skipping possible).
  const std::vector<int32_t> extremes = testing::BruteTopK(source, f, n);
  for (int32_t id : {extremes.front(), extremes[extremes.size() / 2],
                     extremes.back()}) {
    const double score = f.Score(source.row(static_cast<size_t>(id)));
    EXPECT_EQ(CountOutranking(blocks, f, score, id) + 1,
              testing::BruteRankOf(source, f, id))
        << tag << " id=" << id;
  }
}

TEST(BlockPruningTest, ScansMatchOraclesOnEveryFamily) {
  for (size_t d : {size_t{2}, size_t{4}}) {
    for (const Family& family : Families(300, d, 211)) {
      const data::ColumnBlocks blocks = MustBuild(family.data);
      ASSERT_TRUE(blocks.has_block_bounds()) << family.name;
      for (const LinearFunction& f : ProbeFunctions(d, 223)) {
        ExpectMatchesOracles(blocks, f, family.name);
      }
    }
  }
}

TEST(BlockPruningTest, BoundsCoverEveryLaneAndParallelBuildMatchesSerial) {
  for (const Family& family : Families(300, 3, 227)) {
    const data::ColumnBlocks serial = MustBuild(family.data, 1);
    const data::ColumnBlocks parallel = MustBuild(family.data, 4);
    for (size_t b = 0; b < serial.num_blocks(); ++b) {
      for (size_t j = 0; j < serial.dims(); ++j) {
        // The transpose-pass bounds are deterministic: chunked parallel
        // build produces the same doubles as the serial one.
        EXPECT_EQ(serial.block_max(b)[j], parallel.block_max(b)[j])
            << family.name;
        const double* col = serial.column(b, j);
        for (size_t lane = 0; lane < serial.block_rows(b); ++lane) {
          EXPECT_GE(serial.block_max(b)[j], col[lane])
              << family.name << " block " << b << " col " << j;
        }
      }
    }
  }
}

TEST(BlockPruningTest, NaNPoisonsBoundsSoPoisonedBlocksAlwaysScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const data::Dataset ds =
      testing::MakeDataset({{0.9, 0.1}, {nan, 0.8}, {0.2, 0.3}, {0.4, nan}});
  const data::ColumnBlocks blocks = MustBuild(ds);
  ASSERT_EQ(blocks.num_blocks(), 1u);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(blocks.block_max(0)[0], inf);
  EXPECT_EQ(blocks.block_max(0)[1], inf);
  const data::Dataset finite = testing::MakeDataset({{0.9, 0.1}, {0.2, 0.3}});
  const std::vector<int32_t> finite_ids = {0, 2};
  for (const LinearFunction& f : ProbeFunctions(2, 229)) {
    // A poisoned ub (+inf, or NaN when a zero weight multiplies it) never
    // wins a strict-loss comparison, even against a floor, so the block
    // scans. Rows 1 and 3 score NaN under every f (NaN * 0 is NaN), rank
    // after every comparable row and never win the max: the answers are
    // those of the finite rows 0 and 2 alone.
    std::vector<int32_t> want;
    for (int32_t i : testing::BruteTopK(finite, f, 2)) {
      want.push_back(finite_ids[static_cast<size_t>(i)]);
    }
    const double lowest = std::min(f.Score(ds.row(0)), f.Score(ds.row(2)));
    ScanStats stats;
    EXPECT_EQ(TopKScan(blocks, f, 2, &stats, lowest), want);
    EXPECT_EQ(stats.blocks_skipped, 0u);
    EXPECT_EQ(MaxScore(blocks, f, &stats), BruteMaxScore(finite, f));
    EXPECT_EQ(stats.blocks_skipped, 0u);
  }
}

TEST(BlockPruningTest, EveryKernelPathMatchesOraclesAtOneAndFourThreads) {
  const ScoreKernelPath restore = ActiveScoreKernelPath();
  constexpr size_t kReplicas = 4;  // tasks per probe, so 4 threads overlap
  constexpr size_t k = 25;
  const std::vector<Family> families = {
      {"uniform", data::GenerateUniform(3000, 4, 257)},
      {"anticorrelated", data::GenerateAnticorrelated(3000, 4, 257)}};
  const std::vector<LinearFunction> probes = ProbeFunctions(4, 263);
  for (const Family& family : families) {
    const data::Dataset& ds = family.data;
    const data::ColumnBlocks blocks = MustBuild(ds);
    // Per probe: the top-k, the exact top-1 (score, id) — the evaluators'
    // rank-certification reference, where nearly every block is provably
    // hopeless — and the max score, all from the row loops.
    std::vector<std::vector<int32_t>> want_topk;
    std::vector<int32_t> top_id;
    std::vector<double> top_score;
    std::vector<double> want_max;
    for (const LinearFunction& f : probes) {
      want_topk.push_back(testing::BruteTopK(ds, f, k));
      top_id.push_back(want_topk.back().front());
      top_score.push_back(f.Score(ds.row(static_cast<size_t>(top_id.back()))));
      want_max.push_back(BruteMaxScore(ds, f));
    }
    for (ScoreKernelPath path :
         {ScoreKernelPath::kScalarBlocked, ScoreKernelPath::kAvx2}) {
      const ScoreKernelPath installed = ForceScoreKernelPath(path);
      // The force clamps to host support (an unsupported request narrows,
      // never crashes) and round-trips through the active-path query.
      EXPECT_EQ(ActiveScoreKernelPath(), installed);
      if (installed != path) continue;  // host can't run this tier
      for (size_t threads : {size_t{1}, size_t{4}}) {
        const std::string tag = family.name + " " +
                                ScoreKernelPathName(path) +
                                " threads=" + std::to_string(threads);
        std::atomic<uint64_t> rank_skipped{0};
        ParallelFor(threads, probes.size() * kReplicas, [&](size_t task) {
          const size_t p = task % probes.size();
          const LinearFunction& f = probes[p];
          EXPECT_EQ(TopKScan(blocks, f, k), want_topk[p])
              << tag << " probe " << p;
          ScanStats stats;
          EXPECT_EQ(CountOutranking(blocks, f, top_score[p], top_id[p],
                                    &stats) +
                        1,
                    testing::BruteRankOf(ds, f, top_id[p]))
              << tag << " probe " << p;
          rank_skipped.fetch_add(stats.blocks_skipped,
                                 std::memory_order_relaxed);
          EXPECT_EQ(MaxScore(blocks, f), want_max[p]) << tag << " probe " << p;
        });
        // The checks above must have run through the pruned path.
        EXPECT_GT(rank_skipped.load(), 0u) << tag;
      }
    }
  }
  ForceScoreKernelPath(restore);
}

TEST(BlockPruningTest, ConcurrentPrunedScansMatchOracleAndCountersAdvance) {
  const data::Dataset ds = data::GenerateUniform(1000, 3, 269);
  const data::ColumnBlocks blocks = MustBuild(ds);
  const std::vector<LinearFunction> probes = ProbeFunctions(3, 271);
  std::vector<std::vector<int32_t>> want;
  for (const LinearFunction& f : probes) {
    want.push_back(testing::BruteTopK(ds, f, 50));
  }
  const ScanStats before = ScanCountersSnapshot();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ParallelFor(threads, probes.size() * 4, [&](size_t task) {
      const size_t p = task % probes.size();
      EXPECT_EQ(TopKScan(blocks, probes[p], 50), want[p])
          << "threads=" << threads << " probe " << p;
    });
  }
  const ScanStats after = ScanCountersSnapshot();
  // 2 sweeps x |probes| x 4 replicas, each touching every block once.
  EXPECT_EQ(after.blocks_scanned + after.blocks_skipped -
                before.blocks_scanned - before.blocks_skipped,
            2 * probes.size() * 4 * blocks.num_blocks());
}

}  // namespace
}  // namespace topk
}  // namespace rrr
