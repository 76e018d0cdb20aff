#include "core/prepared_dataset.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "geometry/convex_hull.h"
#include "geometry/dominance.h"
#include "topk/score_kernel.h"

namespace rrr {
namespace core {

size_t PreparedDataset::KSetKeyHash::operator()(const KSetKey& key) const {
  uint64_t h = FnvMix(kFnvOffsetBasis, key.k);
  h = FnvMix(h, key.seed);
  h = FnvMix(h, key.termination_count);
  h = FnvMix(h, key.max_samples);
  return static_cast<size_t>(h);
}

namespace {

/// Cap on the shared MDRC corner-top-k memo, counted in stored corners
/// (same meaning as MdrcOptions::max_cache_entries).
constexpr size_t kMaxCornerCacheEntries = size_t{1} << 21;
/// Cap on distinct (k, sampler-options) K-SETr samples kept alive.
constexpr size_t kMaxKSetCacheEntries = 64;

/// A served band may hold up to this many times the k-band's rows, and
/// consecutive retained bands differ by more than this factor.
constexpr size_t kBandSlack = 2;

/// band_sizes[k] = |k-band| = #{rows with count < k} for k <= cap: the
/// cumulative histogram of always-outranker counts capped at `cap`.
std::vector<uint32_t> BandSizes(const std::vector<uint32_t>& counts,
                                size_t cap) {
  std::vector<uint32_t> band_sizes(cap + 1, 0);
  for (uint32_t c : counts) {
    if (c < cap) ++band_sizes[c + 1];
  }
  for (size_t k = 1; k <= cap; ++k) band_sizes[k] += band_sizes[k - 1];
  return band_sizes;
}

using CandidateChainVec = std::vector<std::shared_ptr<const CandidateIndex>>;

/// The first index of `chain` (ascending k) with k() >= k: the narrowest
/// band valid for k.
CandidateChainVec::const_iterator NarrowestFor(const CandidateChainVec& chain,
                                               size_t k) {
  return std::lower_bound(
      chain.begin(), chain.end(), k,
      [](const std::shared_ptr<const CandidateIndex>& index, size_t key) {
        return index->k() < key;
      });
}

/// Inserts `index` into `chain` (ascending k, hence ascending band) and
/// drops every retained index whose band is within kBandSlack of the new
/// one, so consecutive bands keep more than doubling. A narrower dropped
/// index answered only k's the new one now answers within the slack; a
/// wider one only k's whose bands it no longer serves better.
void RetainInChain(std::shared_ptr<const CandidateIndex> index,
                   CandidateChainVec* chain) {
  const size_t band = index->band_size();
  chain->erase(
      std::remove_if(chain->begin(), chain->end(),
                     [band](const std::shared_ptr<const CandidateIndex>& r) {
                       const size_t other = r->band_size();
                       return other <= band ? kBandSlack * other >= band
                                            : kBandSlack * band >= other;
                     }),
      chain->end());
  const auto pos = NarrowestFor(*chain, index->k());
  chain->insert(pos, std::move(index));
}

}  // namespace

PreparedDataset::PreparedDataset(data::Dataset dataset,
                                 const CandidateIndexOptions& candidate,
                                 DatasetVersion version)
    : data_(std::move(dataset)),
      candidate_options_(candidate),
      version_(version),
      kset_cache_(kMaxKSetCacheEntries) {
  corner_cache_ =
      std::make_unique<CornerTopKCache>(data_, kMaxCornerCacheEntries);
}

Result<std::shared_ptr<const PreparedDataset>> PreparedDataset::Create(
    data::Dataset dataset, const CandidateIndexOptions& candidate) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  // Not make_shared: the constructor is private.
  std::shared_ptr<PreparedDataset> prepared(
      new PreparedDataset(std::move(dataset), candidate, NewDatasetOrigin()));
  // The mirror must point at the rows' final home inside the object.
  RRR_RETURN_IF_ERROR(prepared->BuildColumnBlocks());
  return std::shared_ptr<const PreparedDataset>(std::move(prepared));
}

Status PreparedDataset::BuildColumnBlocks() {
  data::ColumnBlocks blocks;
  RRR_ASSIGN_OR_RETURN(blocks, data::ColumnBlocks::Build(data_, 0));
  column_blocks_ = std::make_shared<const data::ColumnBlocks>(
      std::move(blocks));
  return Status::OK();
}

Result<std::shared_ptr<const PreparedDataset>> PreparedDataset::CreateVersioned(
    data::Dataset dataset, const CandidateIndexOptions& candidate,
    UpdateSeed seed) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  if (!seed.version.assigned()) {
    return Status::InvalidArgument("CreateVersioned: unassigned version");
  }
  const size_t n = dataset.size();
  if (seed.counts != nullptr &&
      (seed.counts->size() != n || seed.counts_cap == 0)) {
    return Status::InvalidArgument(
        "CreateVersioned: seed counts shape mismatches the dataset");
  }
  std::shared_ptr<PreparedDataset> prepared(
      new PreparedDataset(std::move(dataset), candidate, seed.version));
  RRR_RETURN_IF_ERROR(prepared->BuildColumnBlocks());
  if (seed.counts != nullptr) {
    const size_t cap = std::min(seed.counts_cap, n);
    std::vector<uint32_t> band_sizes = BandSizes(*seed.counts, cap);
    // Uncontended (the object is not yet published), but the counts are
    // guarded state: take the lock so the write is annotation-clean.
    MutexLock lock(prepared->candidate_mu_);
    prepared->candidates_.cap = cap;
    prepared->candidates_.counts = std::move(seed.counts);
    prepared->candidates_.band_sizes = std::move(band_sizes);
  }
  return std::shared_ptr<const PreparedDataset>(std::move(prepared));
}

const AngularSweep* PreparedDataset::sweep() const {
  if (data_.dims() != 2) return nullptr;
  std::call_once(sweep_once_, [this] {
    sweep_ = std::make_unique<AngularSweep>(data_);
    sweep_built_.store(true, std::memory_order_release);
  });
  return sweep_.get();
}

Result<std::shared_ptr<const std::vector<int32_t>>>
PreparedDataset::SharedSkyline(const ExecContext& ctx, bool* cache_hit) const {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  return skyline_.GetOrCompute(
      ctx, cache_hit, [this]() -> Result<std::vector<int32_t>> {
        RRR_FAILPOINT("core.artifact.skyline");
        return geometry::Skyline(data_.flat(), data_.size(), data_.dims());
      });
}

Result<std::shared_ptr<const std::vector<int32_t>>>
PreparedDataset::SharedConvexMaxima(size_t threads, const ExecContext& ctx,
                                    bool* cache_hit) const {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  return convex_maxima_.GetOrCompute(
      ctx, cache_hit, [this, threads, &ctx]() -> Result<std::vector<int32_t>> {
        RRR_FAILPOINT("core.artifact.convex_maxima");
        // Prefilter to the skyline: maxima are always Pareto-optimal, and
        // separation from the skyline implies separation from everything
        // it dominates.
        std::shared_ptr<const std::vector<int32_t>> sky;
        RRR_ASSIGN_OR_RETURN(sky, SharedSkyline(ctx));
        if (sky->size() <= 1) return *sky;
        std::vector<double> cells;
        cells.reserve(sky->size() * data_.dims());
        for (int32_t id : *sky) {
          const double* r = data_.row(static_cast<size_t>(id));
          cells.insert(cells.end(), r, r + data_.dims());
        }
        Result<data::Dataset> compact = data::Dataset::FromFlat(
            std::move(cells), sky->size(), data_.dims());
        RRR_CHECK(compact.ok()) << compact.status().ToString();
        // Kernel pre-certification: a candidate that is the STRICT top-1 of
        // some probe function — with a margin comfortably above the
        // separation LP's tolerance after |w|_1 normalization — is a
        // maximum by witness, so its LP is skipped. One blocked top-2 scan
        // per probe (the d axes and the diagonal, the directions skyline
        // winners concentrate on) over the compact mirror.
        const size_t d = compact->dims();
        data::ColumnBlocks compact_blocks;
        RRR_ASSIGN_OR_RETURN(compact_blocks,
                             data::ColumnBlocks::Build(*compact, threads,
                                                       ctx));
        std::vector<char> certified(compact->size(), 0);
        constexpr double kCertifyMargin = 1e-4;  // LP tolerance is 1e-7
        for (size_t probe = 0; probe <= d; ++probe) {
          geometry::Vec w(d, probe == d ? 1.0 : 0.0);
          double l1 = static_cast<double>(d);
          if (probe < d) {
            w[probe] = 1.0;
            l1 = 1.0;
          }
          const topk::LinearFunction f(std::move(w));
          const std::vector<int32_t> top2 =
              topk::TopKScan(compact_blocks, f, 2);
          const double s1 = f.Score(compact->row(static_cast<size_t>(top2[0])));
          const double s2 = f.Score(compact->row(static_cast<size_t>(top2[1])));
          if ((s1 - s2) / l1 > kCertifyMargin) {
            certified[static_cast<size_t>(top2[0])] = 1;
          }
        }
        std::vector<int32_t> maxima;
        RRR_ASSIGN_OR_RETURN(
            maxima, geometry::ConvexMaxima(compact->flat(), compact->size(),
                                           compact->dims(), threads,
                                           &certified, ctx));
        for (int32_t& id : maxima) id = (*sky)[static_cast<size_t>(id)];
        std::sort(maxima.begin(), maxima.end());
        return maxima;
      });
}

Result<std::shared_ptr<const KSetSampleResult>> PreparedDataset::SharedKSets(
    size_t k, const KSetSamplerOptions& options, const ExecContext& ctx,
    bool* cache_hit, const CandidateIndex* candidates) const {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  const KSetKey key{k, options.seed, options.termination_count,
                    options.max_samples};
  return kset_cache_.GetOrCompute(
      key, ctx, cache_hit,
      [this, k, &options, &ctx,
       candidates]() -> Result<KSetSampleResult> {
        RRR_FAILPOINT("core.artifact.ksets");
        return SampleKSets(data_, k, options, ctx, candidates,
                           column_blocks_.get());
      });
}

Result<std::shared_ptr<const CandidateIndex>>
PreparedDataset::SharedCandidateIndex(size_t k, size_t threads,
                                      const ExecContext& ctx,
                                      bool* cache_hit) const {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t n = data_.size();
  const size_t kk = std::min(k, n);
  // An uncounted decline is retried (at most once per call) when counts
  // covering kk have appeared since — a larger-k build paid for them, and
  // the slice path skips the decline heuristics entirely — instead of
  // serving the stale decline forever.
  bool retried = false;
  for (;;) {
    std::shared_ptr<const std::vector<uint32_t>> counts;
    std::shared_ptr<internal::LazyCell<CandidateSlot>> cell;
    {
      MutexLock lock(candidate_mu_);
      CandidateState& state = candidates_;
      if (state.cap >= kk) {
        // Counts capped at cap >= kk classify the kk-band exactly (a row
        // is in iff its count < kk), so its size is known before any build.
        counts = state.counts;
        const size_t band = state.band_sizes[kk];
        const auto narrowest = NarrowestFor(state.chain, kk);
        if (narrowest != state.chain.end() &&
            (*narrowest)->band_size() <= kBandSlack * band) {
          if (cache_hit != nullptr) *cache_hit = true;
          return *narrowest;
        }
        // The build would decline exactly as CandidateIndex::Create does.
        if (static_cast<double>(band) / static_cast<double>(n) >
            candidate_options_.max_band_fraction) {
          if (cache_hit != nullptr) *cache_hit = true;
          return std::shared_ptr<const CandidateIndex>();
        }
      } else if (state.decline_floor != 0 && kk >= state.decline_floor) {
        if (cache_hit != nullptr) *cache_hit = true;
        return std::shared_ptr<const CandidateIndex>();
      }
      // A ready cell here is an uncounted decline; with counts covering kk
      // it is stale, so a fresh cell rebuilds through the slice path.
      std::shared_ptr<internal::LazyCell<CandidateSlot>>& entry =
          state.builds[kk];
      if (entry == nullptr ||
          (counts != nullptr && entry->Peek() != nullptr)) {
        entry = std::make_shared<internal::LazyCell<CandidateSlot>>();
      }
      cell = entry;
    }
    std::shared_ptr<const CandidateSlot> slot;
    RRR_ASSIGN_OR_RETURN(
        slot,
        cell->GetOrCompute(
            ctx, cache_hit,
            [this, kk, threads, &counts, &ctx,
             built = cell.get()]() -> Result<CandidateSlot> {
              RRR_FAILPOINT("core.artifact.candidate_index");
              // The count's thread budget: the context's, else `threads`.
              ExecContext build_ctx = ctx;
              build_ctx.threads = ctx.ThreadsOver(threads);
              CandidateIndex::Outcome outcome;
              RRR_ASSIGN_OR_RETURN(
                  outcome,
                  CandidateIndex::Create(data_, kk, candidate_options_,
                                         build_ctx, counts.get()));
              std::vector<uint32_t> band_sizes;
              if (outcome.counts != nullptr) {
                band_sizes = BandSizes(*outcome.counts, kk);
              }
              MutexLock lock(candidate_mu_);
              CandidateState& state = candidates_;
              if (outcome.counts != nullptr && kk > state.cap) {
                state.cap = kk;
                state.counts = outcome.counts;
                state.band_sizes = std::move(band_sizes);
              }
              if (outcome.predicted_near_full_band &&
                  (state.decline_floor == 0 || kk < state.decline_floor)) {
                state.decline_floor = kk;
              }
              if (outcome.index != nullptr) {
                RetainInChain(outcome.index, &state.chain);
              }
              // From here on the chain or the counts answer kk; only an
              // uncounted decline stays behind as a cell.
              if (outcome.index != nullptr || state.cap >= kk) {
                const auto it = state.builds.find(kk);
                if (it != state.builds.end() && it->second.get() == built) {
                  state.builds.erase(it);
                }
              }
              return CandidateSlot{
                  std::move(outcome.index),
                  counts != nullptr || outcome.counts != nullptr};
            }));
    // One retry bounds the loop — the rebuilt slot either carries counts
    // or was raced in by another uncounted compute, in which case the next
    // call retries.
    if (slot->index != nullptr || slot->counted || retried) {
      return slot->index;
    }
    {
      MutexLock lock(candidate_mu_);
      if (candidates_.cap < kk) return slot->index;
    }
    retried = true;
  }
}

std::vector<std::shared_ptr<const CandidateIndex>>
PreparedDataset::CandidateChain() const {
  MutexLock lock(candidate_mu_);
  return candidates_.chain;
}

namespace {

size_t IdVectorBytes(const std::vector<int32_t>& ids) {
  return ids.capacity() * sizeof(int32_t);
}

size_t KSetSampleBytes(const KSetSampleResult& sample) {
  size_t bytes = 0;
  for (const KSet& set : sample.ksets.sets()) {
    bytes += sizeof(KSet) + set.ids.capacity() * sizeof(int32_t);
  }
  // The collection's dedup hash holds one copy of every set's id vector.
  return 2 * bytes;
}

}  // namespace

PreparedDataset::ArtifactBytes PreparedDataset::ApproxArtifactBytes() const {
  ArtifactBytes bytes;
  // The mirror's share includes the per-block column bounds (2 * d doubles
  // per block) that back block-max pruning.
  bytes.dataset = data_.size() * data_.dims() * sizeof(double) +
                  column_blocks_->ApproxBytes();
  if (sweep_built_.load(std::memory_order_acquire)) {
    bytes.dataset += sweep_->ApproxBytes();
  }
  if (std::shared_ptr<const std::vector<int32_t>> sky = skyline_.Peek()) {
    bytes.skyline = IdVectorBytes(*sky);
  }
  if (std::shared_ptr<const std::vector<int32_t>> maxima =
          convex_maxima_.Peek()) {
    bytes.convex_maxima = IdVectorBytes(*maxima);
  }
  kset_cache_.ForEachReady(
      [&bytes](const KSetKey&, const KSetSampleResult& sample) {
        bytes.ksets += sizeof(KSetKey) + KSetSampleBytes(sample);
      });
  bytes.corner_topk = corner_cache_->ApproxBytes();
  {
    MutexLock lock(candidate_mu_);
    for (const std::shared_ptr<const CandidateIndex>& index :
         candidates_.chain) {
      bytes.candidates += index->ApproxBytes();
    }
    if (candidates_.counts != nullptr) {
      bytes.candidate_counts =
          (candidates_.counts->capacity() +
           candidates_.band_sizes.capacity()) *
          sizeof(uint32_t);
    }
  }
  return bytes;
}

size_t PreparedDataset::EvictSharedArtifacts() const {
  const size_t freed = ApproxArtifactBytes().evictable();
  skyline_.Evict();
  convex_maxima_.Evict();
  kset_cache_.Clear();
  corner_cache_->Clear();
  // In-flight builds keep their cells by shared_ptr and finish unaffected;
  // the dropped state is destroyed outside the lock.
  CandidateState dropped;
  {
    MutexLock lock(candidate_mu_);
    std::swap(dropped, candidates_);
  }
  return freed;
}

}  // namespace core
}  // namespace rrr
