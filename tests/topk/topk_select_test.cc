// Equivalence suite for the kernel's buffered top-k selection: TopKScan
// (best-first) and TopKSetScan (ascending ids) must return exactly what the
// brute-force oracles testing::BruteTopK / BruteTopKSet return — same ids,
// same order — for every k around the block size and the buffer's flush
// points (block skip prunes on the mirror's bounds throughout). Ties
// (duplicate rows) and zero-weight corner functions are where a selection
// that bends the (score desc, id asc) order would show.
// Score floors (a lower bound on the k-th best score seeding the threshold)
// must leave both selections unchanged on every kernel tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "geometry/angles.h"
#include "topk/score_kernel.h"
#include "topk/scoring.h"
#include "test_util.h"

namespace rrr {
namespace topk {
namespace {

constexpr size_t kDims = 4;

data::ColumnBlocks MustBuild(const data::Dataset& ds) {
  Result<data::ColumnBlocks> blocks = data::ColumnBlocks::Build(ds, 1);
  RRR_CHECK(blocks.ok()) << blocks.status().ToString();
  return std::move(blocks).value();
}

struct Family {
  std::string name;
  data::Dataset data;
};

std::vector<Family> Families(size_t n, uint64_t seed) {
  std::vector<Family> families;
  families.push_back({"uniform", data::GenerateUniform(n, kDims, seed)});
  families.push_back(
      {"anticorrelated", data::GenerateAnticorrelated(n, kDims, seed)});
  families.push_back(
      {"bn-like", data::GenerateBnLike(n, seed).ProjectPrefix(kDims)});
  // Few distinct rows, each repeated many times: long runs of exact score
  // ties that only the id order separates.
  std::vector<std::vector<double>> dup;
  const data::Dataset pool = data::GenerateUniform(n / 16 + 2, kDims, seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(pool.row(i % pool.size()),
                            pool.row(i % pool.size()) + kDims);
    for (double& v : row) v = std::round(v * 4.0) / 4.0;
    dup.push_back(std::move(row));
  }
  families.push_back({"duplicate-heavy", testing::MakeDataset(dup)});
  return families;
}

/// Corner functions of the angle box (every corner has zero weights, and
/// the all-zero-angle corner is a single axis), plus random directions.
std::vector<LinearFunction> Functions(uint64_t seed) {
  std::vector<LinearFunction> funcs;
  for (size_t mask = 0; mask < (size_t{1} << (kDims - 1)); ++mask) {
    geometry::Vec angles(kDims - 1);
    for (size_t j = 0; j < angles.size(); ++j) {
      angles[j] = (mask >> j & 1) ? geometry::kHalfPi : 0.0;
    }
    funcs.push_back(LinearFunction::FromAngles(angles));
  }
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    funcs.emplace_back(rng.UnitWeightVector(static_cast<int>(kDims)));
  }
  return funcs;
}

std::vector<size_t> Ks(size_t n) {
  return {1, 63, 64, 65, n / 2, n - 1, n, n + 5};
}

/// Both kernel selections against the oracles over `source`, plus the
/// scanned + skipped == num_blocks accounting.
void ExpectSelectionsMatch(const data::ColumnBlocks& blocks,
                           const data::Dataset& source,
                           const std::string& tag) {
  for (const LinearFunction& f : Functions(41)) {
    for (size_t k : Ks(source.size())) {
      const std::vector<int32_t> want = testing::BruteTopK(source, f, k);
      const std::vector<int32_t> want_set =
          testing::BruteTopKSet(source, f, k);
      const std::string where = tag + " k=" + std::to_string(k);
      ScanStats stats;
      EXPECT_EQ(TopKScan(blocks, f, k, &stats), want) << where;
      EXPECT_EQ(stats.blocks_scanned + stats.blocks_skipped,
                blocks.num_blocks())
          << where;
      ScanStats set_stats;
      EXPECT_EQ(TopKSetScan(blocks, f, k, &set_stats), want_set) << where;
      EXPECT_EQ(set_stats.blocks_scanned + set_stats.blocks_skipped,
                blocks.num_blocks())
          << where;
    }
  }
}

TEST(TopKSelectTest, DenseMirrorMatchesRowLoop) {
  for (const Family& family : Families(700, 3)) {
    ExpectSelectionsMatch(MustBuild(family.data), family.data, family.name);
  }
}

TEST(TopKSelectTest, EmptyRequestsScanNothing) {
  const data::Dataset ds = data::GenerateUniform(100, kDims, 9);
  const data::ColumnBlocks blocks = MustBuild(ds);
  const LinearFunction f(geometry::Vec(kDims, 1.0));
  ScanStats stats{7, 7};
  EXPECT_TRUE(TopKScan(blocks, f, 0, &stats).empty());
  EXPECT_EQ(stats.blocks_scanned + stats.blocks_skipped, 0u);
  EXPECT_TRUE(TopKSetScan(blocks, f, 0).empty());
}

// --- Score floors -----------------------------------------------------------
//
// A floor is a lower bound on the k-th best score that seeds the selection
// threshold. Any valid floor — up to the exact k-th best score, where rows
// tying with the k-th row on both sides of its id must still sort by id —
// must leave both selections bit-identical to the unfloored scan, and skip
// at least as many blocks when it is the exact k-th score.

/// Floored selections against the unfloored ones over `blocks`, on every
/// kernel tier. Sets *saw_split_tie when some k-th
/// row had tying rows with both smaller and larger ids.
void ExpectFlooredScansMatch(const data::ColumnBlocks& blocks,
                             const data::Dataset& source,
                             const std::string& tag, bool* saw_split_tie) {
  const ScoreKernelPath original = ActiveScoreKernelPath();
  for (ScoreKernelPath path :
       {ScoreKernelPath::kScalarBlocked, ScoreKernelPath::kAvx2}) {
    const std::string tier = ScoreKernelPathName(ForceScoreKernelPath(path));
    for (const LinearFunction& f : Functions(43)) {
      std::vector<double> scores(source.size());
      for (size_t i = 0; i < source.size(); ++i) {
        scores[i] = f.Score(source.row(i));
      }
      const double lowest = *std::min_element(scores.begin(), scores.end());
      for (size_t k : Ks(source.size())) {
        const std::vector<int32_t> ranked = testing::BruteTopK(source, f, k);
        const int32_t kth_id = ranked.back();
        const double kth = scores[static_cast<size_t>(kth_id)];
        bool tie_below = false;
        bool tie_above = false;
        for (size_t i = 0; i < scores.size(); ++i) {
          if (scores[i] != kth) continue;
          tie_below |= static_cast<int32_t>(i) < kth_id;
          tie_above |= static_cast<int32_t>(i) > kth_id;
        }
        *saw_split_tie |= tie_below && tie_above;
        const std::vector<int32_t> want_set =
            testing::BruteTopKSet(source, f, k);
        ScanStats plain;
        ASSERT_EQ(TopKScan(blocks, f, k, &plain), ranked);
        for (double floor :
             {kth, std::nextafter(kth, -HUGE_VAL), lowest, -HUGE_VAL}) {
          const std::string where = tag + " " + tier + " k=" +
                                    std::to_string(k) +
                                    " floor=" + std::to_string(floor);
          ScanStats stats;
          EXPECT_EQ(TopKScan(blocks, f, k, &stats, floor), ranked) << where;
          EXPECT_EQ(stats.blocks_scanned + stats.blocks_skipped,
                    blocks.num_blocks())
              << where;
          EXPECT_EQ(TopKSetScan(blocks, f, k, nullptr, floor), want_set)
              << where;
          // The exact k-th score is the tightest threshold any scan can
          // reach, so it skips at least what the unfloored scan did.
          if (floor == kth) {
            EXPECT_GE(stats.blocks_skipped, plain.blocks_skipped) << where;
          }
        }
      }
    }
  }
  ForceScoreKernelPath(original);
}

TEST(TopKFloorTest, FlooredScansMatchUnflooredOnDenseMirrors) {
  for (const Family& family : Families(700, 13)) {
    bool saw_split_tie = false;
    ExpectFlooredScansMatch(MustBuild(family.data), family.data, family.name,
                            &saw_split_tie);
    if (family.name == "duplicate-heavy") {
      EXPECT_TRUE(saw_split_tie) << "no k-th row tied on both sides";
    }
  }
}

TEST(TopKFloorDeathTest, FloorAboveTheKthScoreTripsTheCheck) {
  // Rows scoring above the k-th best all outrank the k-th row, so fewer
  // than k reach a floor one ulp above its score: the scan must refuse
  // rather than return a short or wrong top-k.
  const std::vector<Family> families = Families(700, 13);
  const data::Dataset& ds = families.back().data;  // duplicate-heavy
  const data::ColumnBlocks blocks = MustBuild(ds);
  const LinearFunction f = Functions(43).back();
  const size_t k = 65;
  const std::vector<int32_t> ranked = testing::BruteTopK(ds, f, k);
  const double kth = f.Score(ds.row(static_cast<size_t>(ranked.back())));
  const double impossible = std::nextafter(kth, HUGE_VAL);
  EXPECT_DEATH((void)TopKScan(blocks, f, k, nullptr, impossible),
               "above the k-th best score");
  EXPECT_DEATH((void)TopKSetScan(blocks, f, k, nullptr, impossible),
               "above the k-th best score");
}

}  // namespace
}  // namespace topk
}  // namespace rrr
