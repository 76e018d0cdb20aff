#ifndef RRR_TOPK_SCORE_KERNEL_H_
#define RRR_TOPK_SCORE_KERNEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "data/column_blocks.h"
#include "topk/scoring.h"

namespace rrr {
namespace topk {

/// \brief Blocked columnar scoring kernel: the one vectorizable data path
/// under every solver's "evaluate a linear function over many tuples" loop.
///
/// All entry points score whole data::ColumnBlocks tiles at a time,
/// vectorizing ACROSS rows (one lane per row) while accumulating each row's
/// d terms in ascending attribute order — exactly the order of
/// LinearFunction::Score's scalar loop. Multiplications and additions are
/// never fused (the build sets -ffp-contract=off, and the SIMD path uses
/// explicit mul+add, not FMA), so both paths — blocked scalar and AVX2 —
/// produce scores bit-identical to LinearFunction::Score. Consumers may
/// therefore compare kernel results against a per-row reference without
/// tolerances; the contract is pinned by tests/topk/score_kernel_test.cc.
///
/// Dispatch: ScoreBlock runs AVX2 when the host CPU supports it at runtime
/// and the scalar-blocked loop otherwise (the only path off x86-64). Set
/// RRR_SCORE_KERNEL=scalar|avx2 in the environment to pin a path — an
/// unknown value falls back to scalar with one warning, and avx2 on a host
/// without it clamps to scalar, also with a warning. Building with
/// -DRRR_NATIVE=ON additionally lets the compiler autovectorize the
/// scalar-blocked loop for the build host; the dispatched results are
/// identical either way.
///
/// \par Block-max pruning
/// TopKScan/MaxScore/CountOutranking consult data::ColumnBlocks' per-block
/// column bounds: a block whose upper bound (BlockUpperBound — folded with
/// the exact arithmetic sequence of the lane scores, so round-to-nearest
/// monotonicity makes it a bit-level bound) loses *strictly* to the current
/// threshold cannot contribute and is skipped unscored. Ties always scan —
/// a tying row can still win by smaller id under the library tie order — so
/// the scans return exactly what the brute-force row loops return (pinned by
/// tests/topk/block_skip_test.cc). Every non-empty mirror carries bounds, so
/// pruning is always on; there is no switch.
///
/// \par Score floors
/// TopKScan/TopKSetScan optionally take a score floor: a caller-proven lower
/// bound on the k-th best score (e.g. the k-th best, under f, of k rows known
/// from a nearby function's top-k — LinearFunction::Score is bit-identical to
/// the lane scores, so such a floor holds bit-exactly). The selection then
/// starts with the threshold (floor, INT32_MAX) instead of none: the lane
/// filter and block skipping work from block 0, and a row scoring exactly
/// the floor still passes the unchanged strict tie-order test, so floored
/// results are bit-identical to unfloored ones. A floor above the true k-th
/// best score is a caller bug and trips a CHECK (fewer than k rows survive);
/// a floor cannot hold when NaN scores reach the top-k.

/// Which inner path ScoreBlock dispatches to on this host/build.
enum class ScoreKernelPath {
  kScalarBlocked,  ///< autovectorizable scalar loop over the block lanes
  kAvx2,           ///< 4-wide AVX2 doubles, explicit mul+add (no FMA)
};

/// The dispatched path (after the RRR_SCORE_KERNEL env override).
ScoreKernelPath ActiveScoreKernelPath();

/// Stable lowercase name for bench/diagnostic output ("scalar-blocked",
/// "avx2").
const char* ScoreKernelPathName(ScoreKernelPath path);

/// \brief Re-pins the dispatched path at runtime (test hook for sweeping
/// paths inside one process; production code should rely on the env
/// override instead).
///
/// A request the host can't honor clamps to scalar with a warning.
/// Returns the path actually installed. Every path is bit-identical, so
/// flipping mid-process never changes results — only throughput.
ScoreKernelPath ForceScoreKernelPath(ScoreKernelPath path);

/// Per-call scan accounting from the skipping entry points. Only the
/// threshold-driven scans (TopKScan/MaxScore/CountOutranking and the
/// candidate-index band walk) count here — ScoreAll must touch every block
/// by definition and would only dilute the skip rate.
struct ScanStats {
  uint64_t blocks_scanned = 0;
  uint64_t blocks_skipped = 0;
};

/// Process-wide totals of the same counters (relaxed atomics — exact as
/// totals, but deltas taken around a query attribute approximately when
/// queries run concurrently; observability only).
ScanStats ScanCountersSnapshot();

/// Folds an external skip-aware scan's tally (e.g. the candidate-index
/// band walk, which fuses scoring with its own certify logic) into the
/// process-wide counters.
void AccumulateScanCounters(const ScanStats& stats);

/// \brief Upper bound on any lane score of a block with column maxima
/// `maxs`: sum_j w[j] * maxs[j], folded seed-0.0 in ascending j with
/// separate mul and add. Weights must be non-negative (every
/// LinearFunction's are).
///
/// Because that is the exact operation sequence of the lane scores and
/// round-to-nearest is monotone, the result is >= every lane score *as
/// computed*, bit-level — no epsilon slop needed. NaN-poisoned bounds
/// (columns containing NaN) yield +inf or NaN, which never satisfies a
/// strict < threshold test, so poisoned blocks always scan.
double BlockUpperBound(const double* weights, size_t d, const double* maxs);

/// \brief Scores one block: out[lane] = sum_j weights[j] * cols[j * 64 +
/// lane] for all data::ColumnBlocks::kBlockRows lanes, j ascending.
///
/// `cols` is ColumnBlocks::block(b) (d columns of kBlockRows doubles);
/// `out` receives kBlockRows scores, padding lanes included (callers
/// discard them via block_rows). Reference scalar path; always available.
void ScoreBlockScalar(const double* weights, size_t d, const double* cols,
                      double* out);

/// Runtime-dispatched ScoreBlock: the ActiveScoreKernelPath() tier.
void ScoreBlock(const double* weights, size_t d, const double* cols,
                double* out);

/// Scores every mirrored row: out[i] = f.Score(row i) for i in
/// [0, blocks.rows()), bit-identically.
void ScoreAll(const LinearFunction& f, const data::ColumnBlocks& blocks,
              double* out);

/// \brief Fused scoring + top-k selection over the mirror: the ids of the
/// k best rows of blocks.source() under f, best first — score descending,
/// ties by ascending id (the Outranks order). k is clamped to blocks.rows().
///
/// One pass of buffered threshold selection: each block is scored into a
/// stack buffer and its lanes are filtered against the running k-th best
/// (score, id) — a vectorizable score test, then the exact tie order on the
/// lanes that pass. Survivors collect in a buffer of about 2k entries; when
/// it fills, nth_element keeps the k best and tightens the threshold. No
/// O(n) score materialization and no O(n) index sort. Once a threshold
/// exists, blocks whose upper bound loses strictly to it are skipped (see
/// "Block-max pruning"); `stats` (optional) receives this call's scan/skip
/// counts.
/// `floor` (optional) is a proven lower bound on the k-th best score that
/// seeds the threshold (see "Score floors" above).
std::vector<int32_t> TopKScan(const data::ColumnBlocks& blocks,
                              const LinearFunction& f, size_t k,
                              ScanStats* stats = nullptr,
                              std::optional<double> floor = std::nullopt);

/// The same selection as TopKScan, returned as a set: the top-k ids sorted
/// ascending (the k-set form), without the best-first sort.
std::vector<int32_t> TopKSetScan(const data::ColumnBlocks& blocks,
                                 const LinearFunction& f, size_t k,
                                    ScanStats* stats = nullptr,
                                 std::optional<double> floor = std::nullopt);

/// Maximum score over all mirrored rows (== max_i f.Score(row i); the
/// regret-ratio evaluators' full-scan numerator). Requires rows() > 0.
/// NaN scores never win the fold (std::max-chain semantics, matching the
/// legacy row loops on unvalidated data); all-NaN input yields -infinity.
/// Blocks upper-bounded strictly below the running max are skipped.
double MaxScore(const data::ColumnBlocks& blocks, const LinearFunction& f,
                ScanStats* stats = nullptr);

/// \brief Rows outranking reference (score, id) under the library tie
/// order: |{ j : Outranks(f.Score(row j), j, score, id) }|.
///
/// The rank primitive: RankOf(item) == 1 + CountOutranking(f.Score(item),
/// item) (row `id` itself never outranks its own (score, id) pair, so it
/// needs no exclusion). Blocks upper-bounded strictly below `score` cannot
/// hold an outranking row (outranking at equal score needs the scan anyway
/// only when s == score, which a strict loss excludes) and are skipped.
int64_t CountOutranking(const data::ColumnBlocks& blocks,
                        const LinearFunction& f, double score, int32_t id,
                        ScanStats* stats = nullptr);

}  // namespace topk
}  // namespace rrr

#endif  // RRR_TOPK_SCORE_KERNEL_H_
