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

PreparedDataset::PreparedDataset(data::Dataset dataset, const Options& options,
                                 DatasetVersion version)
    : data_(std::move(dataset)),
      options_(options),
      version_(version),
      kset_cache_(options.max_kset_cache_entries),
      candidate_cache_(options.max_candidate_cache_entries) {
  if (data_.dims() == 2) {
    sweep_ = std::make_unique<AngularSweep>(data_);
  }
  corner_cache_ = std::make_unique<CornerTopKCache>(
      data_, options.max_corner_cache_entries);
}

Result<std::shared_ptr<const PreparedDataset>> PreparedDataset::Create(
    data::Dataset dataset, const Options& options) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  // Not make_shared: the constructor is private, and the sweep must be
  // built against the dataset's final resting address.
  return std::shared_ptr<const PreparedDataset>(
      new PreparedDataset(std::move(dataset), options, NewDatasetOrigin()));
}

Result<std::shared_ptr<const PreparedDataset>> PreparedDataset::CreateVersioned(
    data::Dataset dataset, const Options& options, UpdateSeed seed) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  RRR_RETURN_IF_ERROR(dataset.CheckFinite());
  if (!seed.version.assigned()) {
    return Status::InvalidArgument("CreateVersioned: unassigned version");
  }
  const size_t n = dataset.size();
  if (seed.blocks != nullptr && (seed.blocks->rows() != n ||
                                 seed.blocks->dims() != dataset.dims())) {
    return Status::InvalidArgument(
        "CreateVersioned: seed mirror shape mismatches the dataset");
  }
  if (seed.counts != nullptr &&
      (seed.counts->size() != n || seed.counts_cap == 0)) {
    return Status::InvalidArgument(
        "CreateVersioned: seed counts shape mismatches the dataset");
  }
  std::shared_ptr<PreparedDataset> prepared(
      new PreparedDataset(std::move(dataset), options, seed.version));
  if (seed.blocks != nullptr) {
    // The seed mirror was built against the update layer's staging
    // dataset; the rows now live (bit-identically) inside this object.
    seed.blocks->RebindSource(&prepared->data_);
    prepared->column_blocks_.Put(std::move(*seed.blocks));
  }
  if (seed.counts != nullptr) {
    // Uncontended (the object is not yet published), but the counts are
    // guarded state: take the lock so the write is annotation-clean.
    MutexLock lock(prepared->candidate_counts_mu_);
    prepared->candidate_counts_.cap = std::min(seed.counts_cap, n);
    prepared->candidate_counts_.counts = std::move(seed.counts);
  }
  return std::shared_ptr<const PreparedDataset>(std::move(prepared));
}

Result<std::shared_ptr<const data::ColumnBlocks>>
PreparedDataset::SharedColumnBlocks(size_t threads, const ExecContext& ctx,
                                    bool* cache_hit) const {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  return column_blocks_.GetOrCompute(
      ctx, cache_hit,
      [this, threads, &ctx]() -> Result<data::ColumnBlocks> {
        RRR_FAILPOINT("core.artifact.column_blocks");
        return data::ColumnBlocks::Build(data_, threads, ctx);
      });
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
        // The draws scan the full dataset only without an index; only then
        // is the shared columnar mirror fetched (bit-identical collection
        // either way — which is also why the mirror does not key the cache).
        std::shared_ptr<const data::ColumnBlocks> blocks;
        if (candidates == nullptr) {
          RRR_ASSIGN_OR_RETURN(
              blocks, SharedColumnBlocks(options.threads, ctx));
        }
        return SampleKSets(data_, k, options, ctx, candidates, blocks.get());
      });
}

Result<std::shared_ptr<const CandidateIndex>>
PreparedDataset::SharedCandidateIndex(size_t k, size_t threads,
                                      const ExecContext& ctx,
                                      bool* cache_hit) const {
  RRR_RETURN_IF_ERROR(ctx.CheckPreempted());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t kk = std::min(k, data_.size());
  // Monotone slice: counts capped at cap >= kk classify the kk-band
  // exactly (a row is in iff its count < kk), so the largest successful
  // count is reused for every smaller k. A slot that declined WITHOUT
  // counts is retried (at most once per call) when counts covering kk have
  // appeared since — a larger-k build paid for them, and the slice path
  // skips the decline heuristics entirely — instead of serving the stale
  // negative entry forever.
  bool retried = false;
  for (;;) {
    std::shared_ptr<const std::vector<uint32_t>> counts;
    {
      MutexLock lock(candidate_counts_mu_);
      if (candidate_counts_.cap >= kk) counts = candidate_counts_.counts;
    }
    std::shared_ptr<const CandidateSlot> slot;
    RRR_ASSIGN_OR_RETURN(
        slot,
        candidate_cache_.GetOrCompute(
            kk, ctx, cache_hit,
            [this, kk, threads, &counts, &ctx]() -> Result<CandidateSlot> {
              RRR_FAILPOINT("core.artifact.candidate_index");
              CandidateIndexOptions build = options_.candidate;
              build.threads = threads != 0 ? threads : build.threads;
              // The shared mirror feeds the build's sort-by-sum pass (and
              // is cheap relative to the dominance count it precedes).
              std::shared_ptr<const data::ColumnBlocks> blocks;
              RRR_ASSIGN_OR_RETURN(blocks,
                                   SharedColumnBlocks(threads, ctx));
              CandidateIndex::Outcome outcome;
              RRR_ASSIGN_OR_RETURN(
                  outcome, CandidateIndex::Create(data_, kk, build, ctx,
                                                  counts.get(),
                                                  blocks.get()));
              if (outcome.counts != nullptr) {
                MutexLock lock(candidate_counts_mu_);
                if (kk > candidate_counts_.cap) {
                  candidate_counts_.cap = kk;
                  candidate_counts_.counts = outcome.counts;
                }
              }
              return CandidateSlot{std::move(outcome.index),
                                   counts != nullptr};
            }));
    // A counts-less decline is stale once counts covering kk exist (this
    // read, or appeared concurrently); drop it and rebuild through the
    // slice path. One retry bounds the loop — the rebuilt slot either
    // carries counts or was raced in by another counts-less compute, in
    // which case the next call retries.
    if (slot->index != nullptr || slot->built_from_counts || retried) {
      return slot->index;
    }
    if (counts == nullptr) {
      MutexLock lock(candidate_counts_mu_);
      if (candidate_counts_.cap < kk) return slot->index;
    }
    retried = true;
    candidate_cache_.Invalidate(kk);
  }
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
  bytes.dataset = data_.size() * data_.dims() * sizeof(double);
  if (sweep_ != nullptr) bytes.dataset += sweep_->ApproxBytes();
  if (std::shared_ptr<const data::ColumnBlocks> blocks =
          column_blocks_.Peek()) {
    // Includes the per-block column bounds (2 * d doubles per block) that
    // back block-max pruning — the metadata rides the mirror's budget.
    bytes.column_blocks = blocks->ApproxBytes();
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
  candidate_cache_.ForEachReady(
      [&bytes](const size_t&, const CandidateSlot& slot) {
        bytes.candidates += sizeof(CandidateSlot);
        if (slot.index != nullptr) bytes.candidates += slot.index->ApproxBytes();
      });
  bytes.corner_topk = corner_cache_->ApproxBytes();
  {
    MutexLock lock(candidate_counts_mu_);
    if (candidate_counts_.counts != nullptr) {
      bytes.candidate_counts =
          candidate_counts_.counts->capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

size_t PreparedDataset::EvictSharedArtifacts() const {
  const size_t freed = ApproxArtifactBytes().evictable();
  column_blocks_.Evict();
  skyline_.Evict();
  convex_maxima_.Evict();
  kset_cache_.Clear();
  candidate_cache_.Clear();
  corner_cache_->Clear();
  {
    MutexLock lock(candidate_counts_mu_);
    candidate_counts_.cap = 0;
    candidate_counts_.counts.reset();
  }
  return freed;
}

}  // namespace core
}  // namespace rrr
