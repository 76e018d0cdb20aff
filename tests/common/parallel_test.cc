#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace rrr {
namespace {

TEST(ParallelTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(HardwareConcurrency(), 1u);
}

TEST(ParallelTest, ResolveThreadsZeroMeansAuto) {
  EXPECT_EQ(ResolveThreads(0), HardwareConcurrency());
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
  EXPECT_EQ(ResolveThreads(100000), ThreadPool::kMaxWorkers);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) std::this_thread::yield();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }  // ~ThreadPool must run every queued task before joining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, EnsureWorkersGrows) {
  ThreadPool pool(1);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.EnsureWorkers(2);  // never shrinks
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(4, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ChunkedCoversRangeWithoutOverlap) {
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelForChunked(4, kN, 64, [&](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, kN);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialFallbacksRunInline) {
  // threads = 1 and tiny n must both run on the calling thread.
  const std::thread::id self = std::this_thread::get_id();
  ParallelFor(1, 100, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
  ParallelForChunked(8, 3, 64, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
}

TEST(ParallelForTest, ZeroIterationsIsANoop) {
  bool called = false;
  ParallelFor(4, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, NestedCallsDegradeToSerialWithoutDeadlock) {
  // An inner ParallelFor issued from a pool worker must run inline on that
  // worker; a pool-wide wait there could deadlock a single-worker pool.
  std::atomic<size_t> inner_total{0};
  ParallelFor(4, 8, [&](size_t) {
    ParallelFor(4, 100, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 800u);
}

TEST(ParallelForTest, ParallelSumMatchesSerial) {
  constexpr size_t kN = 100000;
  std::vector<int64_t> values(kN);
  std::iota(values.begin(), values.end(), 1);
  std::atomic<int64_t> sum{0};
  ParallelForChunked(8, kN, 1024, [&](size_t begin, size_t end) {
    int64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += values[i];
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kN) * (kN + 1) / 2);
}

TEST(ParallelForTest, CallerWaitsForItsChunksNotForQueuedHelpers) {
  // Park every shared-pool worker on a latch, as another query's helpers
  // would occupy them. The caller can run all chunks itself, so the loop
  // must finish although none of its helper tasks has been dequeued.
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(4);
  const size_t workers = pool.size();
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::atomic<size_t> parked{0};
  for (size_t w = 0; w < workers; ++w) {
    pool.Submit([latch, &parked] {
      parked.fetch_add(1);
      latch.wait();
    });
  }
  while (parked.load() < workers) std::this_thread::yield();

  std::atomic<size_t> covered{0};
  std::future<void> loop = std::async(std::launch::async, [&covered] {
    ParallelForChunked(4, 256, 1, [&covered](size_t begin, size_t end) {
      covered.fetch_add(end - begin);
    });
  });
  const bool finished =
      loop.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  loop.wait();
  EXPECT_TRUE(finished) << "ParallelForChunked waited for parked helpers";
  EXPECT_EQ(covered.load(), 256u);
}

TEST(ParallelForTest, ManyConcurrentLoopsFromManyThreads) {
  // Several caller threads hammering the shared pool at once: the per-call
  // completion latch must never cross wires between calls.
  std::vector<std::thread> callers;
  std::atomic<int64_t> grand_total{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&grand_total] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int64_t> local{0};
        ParallelFor(3, 500, [&](size_t) { local.fetch_add(1); });
        grand_total.fetch_add(local.load());
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(grand_total.load(), int64_t{4} * 20 * 500);
}

}  // namespace
}  // namespace rrr
