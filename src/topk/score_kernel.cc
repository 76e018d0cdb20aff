#include "topk/score_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define RRR_SCORE_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace rrr {
namespace topk {

namespace {

constexpr size_t kBlockRows = data::ColumnBlocks::kBlockRows;

#ifdef RRR_SCORE_KERNEL_X86
/// AVX2 block scorer. Compiled with a per-function target attribute so the
/// translation unit itself stays baseline x86-64; only executed after the
/// runtime __builtin_cpu_supports check below. Uses explicit mul then add —
/// never vfmadd — so each lane's rounding sequence matches the scalar loop
/// exactly (the kernel's bit-identity contract).
__attribute__((target("avx2"))) void ScoreBlockAvx2(const double* weights,
                                                    size_t d,
                                                    const double* cols,
                                                    double* out) {
  // Half a block (32 lanes) per round: 8 live accumulators fit the 16-ymm
  // register file with room for the broadcast weight and the column load,
  // the weight is broadcast once per column (not once per lane chunk), and
  // each column is consumed as one 256-byte contiguous stream. Per lane the
  // operation sequence is acc += w[j] * col[lane] in ascending j with
  // separate mul and add roundings — bit-identical to the scalar loop.
  for (size_t half = 0; half < kBlockRows; half += 32) {
    __m256d acc[8];
    for (int i = 0; i < 8; ++i) acc[i] = _mm256_setzero_pd();
    for (size_t j = 0; j < d; ++j) {
      const __m256d wj = _mm256_set1_pd(weights[j]);
      const double* col = cols + j * kBlockRows + half;
      for (int i = 0; i < 8; ++i) {
        acc[i] = _mm256_add_pd(
            acc[i], _mm256_mul_pd(wj, _mm256_loadu_pd(col + 4 * i)));
      }
    }
    for (int i = 0; i < 8; ++i) {
      _mm256_storeu_pd(out + half + 4 * i, acc[i]);
    }
  }
}

/// AVX2 lane test: bit `lane` of the result is _mm256_cmp_pd(buf[lane], x,
/// kPred), four lanes per compare, gathered by movemask. Same target gate as
/// ScoreBlockAvx2.
template <int kPred>
__attribute__((target("avx2"))) uint64_t LaneMaskAvx2(const double* buf,
                                                      double x) {
  const __m256d t = _mm256_set1_pd(x);
  uint64_t mask = 0;
  for (size_t lane = 0; lane < kBlockRows; lane += 4) {
    const __m256d v = _mm256_loadu_pd(buf + lane);
    mask |= static_cast<uint64_t>(
                _mm256_movemask_pd(_mm256_cmp_pd(v, t, kPred)))
            << lane;
  }
  return mask;
}
#endif  // RRR_SCORE_KERNEL_X86

/// Widest path the host CPU can execute (build-time x86 gate included).
ScoreKernelPath WidestSupportedPath() {
#ifdef RRR_SCORE_KERNEL_X86
  if (__builtin_cpu_supports("avx2")) return ScoreKernelPath::kAvx2;
#endif
  return ScoreKernelPath::kScalarBlocked;
}

/// Clamps a requested path to host support, warning when it narrows.
ScoreKernelPath ClampToSupported(ScoreKernelPath want, const char* origin) {
  const ScoreKernelPath widest = WidestSupportedPath();
  if (static_cast<int>(want) <= static_cast<int>(widest)) return want;
  RRR_LOG(WARNING) << "score kernel: " << origin << " requested "
                   << ScoreKernelPathName(want)
                   << " but this host supports at most "
                   << ScoreKernelPathName(widest) << "; using the latter";
  return widest;
}

/// Resolves the initial dispatch from RRR_SCORE_KERNEL. Unknown values fall
/// back to scalar (with one warning) rather than silently dispatching — a
/// typo must not leave the operator believing a forced path is in effect.
ScoreKernelPath PathFromEnv() {
  const char* force = std::getenv("RRR_SCORE_KERNEL");
  if (force == nullptr) return WidestSupportedPath();
  if (std::strcmp(force, "scalar") == 0) return ScoreKernelPath::kScalarBlocked;
  if (std::strcmp(force, "avx2") == 0) {
    return ClampToSupported(ScoreKernelPath::kAvx2, "RRR_SCORE_KERNEL");
  }
  RRR_LOG(WARNING) << "score kernel: unknown RRR_SCORE_KERNEL value \""
                   << force << "\" (want scalar|avx2); "
                   << "falling back to the scalar path";
  return ScoreKernelPath::kScalarBlocked;
}

/// The installed path: -1 until first use (lazily resolved from the env so
/// tests can set RRR_SCORE_KERNEL before any kernel call), else a
/// ScoreKernelPath. A settable atomic rather than a read-once static so
/// ForceScoreKernelPath can sweep paths inside one test process; relaxed
/// is enough because every path is bit-identical — readers racing a flip
/// get one of two correct kernels.
std::atomic<int> g_active_path{-1};

/// Process-wide scan accounting (relaxed; see ScanCountersSnapshot).
std::atomic<uint64_t> g_blocks_scanned{0};
std::atomic<uint64_t> g_blocks_skipped{0};

/// Folds a call's local tally into the globals and the caller's out-param.
void CommitScanStats(const ScanStats& local, ScanStats* out) {
  g_blocks_scanned.fetch_add(local.blocks_scanned, std::memory_order_relaxed);
  g_blocks_skipped.fetch_add(local.blocks_skipped, std::memory_order_relaxed);
  if (out != nullptr) *out = local;
}

}  // namespace

ScoreKernelPath ActiveScoreKernelPath() {
  int p = g_active_path.load(std::memory_order_relaxed);
  if (p < 0) {
    int expected = -1;
    g_active_path.compare_exchange_strong(
        expected, static_cast<int>(PathFromEnv()), std::memory_order_relaxed);
    p = g_active_path.load(std::memory_order_relaxed);
  }
  return static_cast<ScoreKernelPath>(p);
}

ScoreKernelPath ForceScoreKernelPath(ScoreKernelPath path) {
  const ScoreKernelPath actual =
      ClampToSupported(path, "ForceScoreKernelPath");
  g_active_path.store(static_cast<int>(actual), std::memory_order_relaxed);
  return actual;
}

const char* ScoreKernelPathName(ScoreKernelPath path) {
  switch (path) {
    case ScoreKernelPath::kScalarBlocked:
      return "scalar-blocked";
    case ScoreKernelPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScanStats ScanCountersSnapshot() {
  ScanStats totals;
  totals.blocks_scanned = g_blocks_scanned.load(std::memory_order_relaxed);
  totals.blocks_skipped = g_blocks_skipped.load(std::memory_order_relaxed);
  return totals;
}

void AccumulateScanCounters(const ScanStats& stats) {
  CommitScanStats(stats, nullptr);
}

double BlockUpperBound(const double* weights, size_t d, const double* maxs) {
  // The exact lane-score operation sequence — 0.0 seed, ascending j,
  // separate mul and add — with each row term replaced by its bound (the
  // column max, since no weight is negative). Rounding to nearest is
  // monotone in each operand, so by induction the fold stays >= every
  // lane's fold at the bit level; no epsilon.
  double ub = 0.0;
  for (size_t j = 0; j < d; ++j) ub += weights[j] * maxs[j];
  return ub;
}

void ScoreBlockScalar(const double* weights, size_t d, const double* cols,
                      double* out) {
  // Per-lane accumulation in ascending j — the exact operation sequence of
  // LinearFunction::Score (0.0 seed included, so a -0.0 first term rounds
  // the same way). The lane loop is what the compiler vectorizes.
  for (size_t lane = 0; lane < kBlockRows; ++lane) out[lane] = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = weights[j];
    const double* col = cols + j * kBlockRows;
    for (size_t lane = 0; lane < kBlockRows; ++lane) {
      out[lane] += w * col[lane];
    }
  }
}

void ScoreBlock(const double* weights, size_t d, const double* cols,
                double* out) {
  switch (ActiveScoreKernelPath()) {
#ifdef RRR_SCORE_KERNEL_X86
    case ScoreKernelPath::kAvx2:
      ScoreBlockAvx2(weights, d, cols, out);
      return;
#else
    case ScoreKernelPath::kAvx2:
      break;  // unreachable: non-x86 dispatch never installs a SIMD path
#endif
    case ScoreKernelPath::kScalarBlocked:
      break;
  }
  ScoreBlockScalar(weights, d, cols, out);
}

void ScoreAll(const LinearFunction& f, const data::ColumnBlocks& blocks,
              double* out) {
  RRR_DCHECK(f.dims() == blocks.dims()) << "ScoreAll: dimension mismatch";
  const double* w = f.weights().data();
  const size_t d = blocks.dims();
  const size_t num_blocks = blocks.num_blocks();
  double buf[kBlockRows];
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t rows = blocks.block_rows(b);
    if (rows == kBlockRows) {
      ScoreBlock(w, d, blocks.block(b), out + b * kBlockRows);
    } else {
      ScoreBlock(w, d, blocks.block(b), buf);
      std::copy(buf, buf + rows, out + b * kBlockRows);
    }
  }
}

namespace {

/// Per-lane predicates of LaneMask against a reference score x.
enum class LaneTest {
  kNotBelow,  ///< !(s < x): NaN lanes pass (and every lane, when x is NaN)
  kAbove,     ///< s > x: NaN never passes
  kEqual,     ///< s == x: NaN never passes
};

template <LaneTest kTest>
bool LanePasses(double s, double x) {
  switch (kTest) {
    case LaneTest::kNotBelow:
      return !(s < x);
    case LaneTest::kAbove:
      return s > x;
    case LaneTest::kEqual:
      return s == x;
  }
  return false;
}

/// The 64 lane results of `kTest` over a scored block as a bitmap (bit
/// `lane` for buf[lane]), padding lanes included — callers AND in
/// block_mask(). The AVX2 tier compares four lanes at a time with the
/// matching IEEE predicate (NLT_UQ, GT_OQ, EQ_OQ: the same NaN outcomes as
/// the scalar operators), so both tiers return the same bits.
template <LaneTest kTest>
uint64_t LaneMask(const double* buf, double x) {
#ifdef RRR_SCORE_KERNEL_X86
  if (ActiveScoreKernelPath() == ScoreKernelPath::kAvx2) {
    switch (kTest) {
      case LaneTest::kNotBelow:
        return LaneMaskAvx2<_CMP_NLT_UQ>(buf, x);
      case LaneTest::kAbove:
        return LaneMaskAvx2<_CMP_GT_OQ>(buf, x);
      case LaneTest::kEqual:
        return LaneMaskAvx2<_CMP_EQ_OQ>(buf, x);
    }
  }
#endif
  uint64_t mask = 0;
  for (size_t lane = 0; lane < kBlockRows; ++lane) {
    mask |= static_cast<uint64_t>(LanePasses<kTest>(buf[lane], x)) << lane;
  }
  return mask;
}

/// One selection candidate: a lane's score and its row id.
struct Scored {
  double score;
  int32_t id;
};

/// The library tie order (Outranks: score desc, id asc), extended to a
/// strict total order over unvalidated data by ranking NaN scores after
/// every comparable one (NaNs among themselves by id). nth_element/sort
/// need a strict weak order; on finite data this is exactly Outranks. A
/// function object, so the sort and selection calls inline it.
struct Before {
  bool operator()(const Scored& a, const Scored& b) const {
    if (a.score > b.score) return true;
    if (a.score == b.score) return a.id < b.id;
    if (a.score < b.score) return false;
    const bool a_nan = std::isnan(a.score);
    if (a_nan != std::isnan(b.score)) return !a_nan;
    return a.id < b.id;
  }
};

/// Buffered threshold selection: leaves the k best (score, id) pairs of the
/// mirror in `best`, in unspecified order (1 <= k <= rows()).
///
/// Each scored block is filtered against the running k-th best pair: a
/// vector `!(score < thr)` lane test (NaN lanes pass it, and a NaN threshold
/// passes every lane), then the exact order on the few lanes that pass.
/// Survivors append to a buffer of ~2k entries; a full buffer is cut back to
/// its k best by nth_element, which also tightens the threshold. The order
/// is strict and total, so any correct selection keeps the same k pairs —
/// the ones a full sort would. Block skip applies the strict-loss rule
/// against the threshold once one exists. A `floor` is that threshold from
/// block 0, as the pair (floor, INT32_MAX): every row scoring >= floor
/// passes it, so the k best still all survive when floor <= the k-th best.
void SelectTopK(const data::ColumnBlocks& blocks, const LinearFunction& f,
                size_t k, ScanStats* stats, std::optional<double> floor,
                std::vector<Scored>* best) {
  RRR_DCHECK(f.dims() == blocks.dims()) << "TopKScan: dimension mismatch";
  const double* w = f.weights().data();
  const size_t d = blocks.dims();
  const bool use_skip = blocks.has_block_bounds();
  const size_t flush_at = k + std::max(k, kBlockRows);
  ScanStats local;
  best->clear();
  best->reserve(std::min(flush_at + kBlockRows, blocks.rows()));
  bool have_thr = floor.has_value();
  Scored thr{floor.value_or(0.0), std::numeric_limits<int32_t>::max()};

  double buf[kBlockRows];
  const size_t num_blocks = blocks.num_blocks();
  for (size_t b = 0; b < num_blocks; ++b) {
    // Strict loss only: a block with ub == threshold may hold a tying row
    // that wins by smaller id, so ties always scan (the bit-identity
    // contract's tie-order caveat).
    if (use_skip && have_thr &&
        BlockUpperBound(w, d, blocks.block_max(b)) < thr.score) {
      ++local.blocks_skipped;
      continue;
    }
    ++local.blocks_scanned;
    ScoreBlock(w, d, blocks.block(b), buf);
    uint64_t pass = blocks.block_mask(b);
    if (have_thr) pass &= LaneMask<LaneTest::kNotBelow>(buf, thr.score);
    const int32_t base = static_cast<int32_t>(b * kBlockRows);
    for (; pass != 0; pass &= pass - 1) {
      const int lane = __builtin_ctzll(pass);
      const Scored s{buf[lane], base + lane};
      if (!have_thr || Before{}(s, thr)) best->push_back(s);
    }
    if (best->size() >= flush_at) {
      std::nth_element(best->begin(), best->begin() + (k - 1), best->end(),
                       Before{});
      best->resize(k);
      thr = best->back();
      have_thr = true;
    }
  }
  CommitScanStats(local, stats);
  RRR_CHECK(best->size() >= k)
      << "TopKScan: score floor " << floor.value_or(0.0)
      << " is above the k-th best score (" << best->size() << " of " << k
      << " rows reach it)";
  if (best->size() > k) {
    std::nth_element(best->begin(), best->begin() + (k - 1), best->end(),
                     Before{});
    best->resize(k);
  }
}

}  // namespace

std::vector<int32_t> TopKScan(const data::ColumnBlocks& blocks,
                              const LinearFunction& f, size_t k,
                              ScanStats* stats, std::optional<double> floor) {
  k = std::min(k, blocks.rows());
  if (k == 0) {
    if (stats != nullptr) *stats = ScanStats{};
    return {};
  }
  std::vector<Scored> best;
  SelectTopK(blocks, f, k, stats, floor, &best);
  std::sort(best.begin(), best.end(), Before{});
  std::vector<int32_t> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = best[i].id;
  return out;
}

std::vector<int32_t> TopKSetScan(const data::ColumnBlocks& blocks,
                                 const LinearFunction& f, size_t k,
                                 ScanStats* stats,
                                 std::optional<double> floor) {
  k = std::min(k, blocks.rows());
  if (k == 0) {
    if (stats != nullptr) *stats = ScanStats{};
    return {};
  }
  std::vector<Scored> best;
  SelectTopK(blocks, f, k, stats, floor, &best);
  std::vector<int32_t> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = best[i].id;
  std::sort(out.begin(), out.end());
  return out;
}

double MaxScore(const data::ColumnBlocks& blocks, const LinearFunction& f,
                ScanStats* stats) {
  RRR_DCHECK(f.dims() == blocks.dims()) << "MaxScore: dimension mismatch";
  RRR_CHECK(blocks.rows() > 0) << "MaxScore: empty mirror";
  const double* w = f.weights().data();
  const size_t d = blocks.dims();
  const bool use_skip = blocks.has_block_bounds();
  ScanStats local;
  double buf[kBlockRows];
  // Padding lanes score 0.0 and all-negative data would let them win, so
  // the fold honors block_rows everywhere. The -infinity seed with a
  // strict > makes the fold NaN-robust exactly like a std::max chain: a
  // NaN score never wins a comparison, so unvalidated callers (the eval
  // metrics pre-date finiteness checks) see the max of the comparable
  // scores — bit-identical to their legacy row loops — instead of a
  // poisoned max. All-NaN input yields -infinity.
  double best = -std::numeric_limits<double>::infinity();
  const size_t num_blocks = blocks.num_blocks();
  for (size_t b = 0; b < num_blocks; ++b) {
    // ub < best means no lane can beat the running max (ties lose the
    // strict > fold anyway, but skipping only on strict loss keeps one rule
    // everywhere); ub of NaN (poisoned bounds under a zero weight) fails
    // the < and scans.
    if (use_skip && BlockUpperBound(w, d, blocks.block_max(b)) < best) {
      ++local.blocks_skipped;
      continue;
    }
    ++local.blocks_scanned;
    ScoreBlock(w, d, blocks.block(b), buf);
    const size_t rows = blocks.block_rows(b);
    for (size_t lane = 0; lane < rows; ++lane) {
      if (buf[lane] > best) best = buf[lane];
    }
  }
  CommitScanStats(local, stats);
  return best;
}

int64_t CountOutranking(const data::ColumnBlocks& blocks,
                        const LinearFunction& f, double score, int32_t id,
                        ScanStats* stats) {
  RRR_DCHECK(f.dims() == blocks.dims())
      << "CountOutranking: dimension mismatch";
  const double* w = f.weights().data();
  const size_t d = blocks.dims();
  const bool use_skip = blocks.has_block_bounds();
  ScanStats local;
  double buf[kBlockRows];
  int64_t count = 0;
  const size_t num_blocks = blocks.num_blocks();
  for (size_t b = 0; b < num_blocks; ++b) {
    // ub < score: every lane scores strictly below the reference, and
    // outranking needs s > score or a tie — a strict loss rules both out.
    // ub == score must scan (a tying lane with row_id < id outranks).
    if (use_skip && BlockUpperBound(w, d, blocks.block_max(b)) < score) {
      ++local.blocks_skipped;
      continue;
    }
    ++local.blocks_scanned;
    ScoreBlock(w, d, blocks.block(b), buf);
    // Outranks(s, row_id, score, id): strict winners by popcount, then the
    // few tying lanes by id. Padding lanes drop with the row mask.
    const uint64_t live = blocks.block_mask(b);
    count += __builtin_popcountll(LaneMask<LaneTest::kAbove>(buf, score) &
                                  live);
    const int32_t base = static_cast<int32_t>(b * kBlockRows);
    for (uint64_t tie = LaneMask<LaneTest::kEqual>(buf, score) & live;
         tie != 0; tie &= tie - 1) {
      if (base + __builtin_ctzll(tie) < id) ++count;
    }
  }
  CommitScanStats(local, stats);
  return count;
}

}  // namespace topk
}  // namespace rrr
