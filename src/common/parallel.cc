#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace rrr {

namespace {

/// Set for the lifetime of a pool worker thread; lets ParallelFor detect
/// nested parallelism and degrade to serial instead of deadlocking on a
/// pool whose workers are all busy running the outer loop.
thread_local bool t_on_pool_worker = false;

}  // namespace

size_t HardwareConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

size_t ResolveThreads(size_t threads_option) {
  if (threads_option == 0) return HardwareConcurrency();
  return std::min(threads_option, ThreadPool::kMaxWorkers);
}

ThreadPool::ThreadPool(size_t num_threads) { EnsureWorkers(num_threads); }

ThreadPool::~ThreadPool() {
  // Swap the workers out under the lock, then join them unlocked: joining
  // while holding mu_ would deadlock against WorkerLoop's queue waits.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  cv_.NotifyAll();
  for (std::thread& w : workers) w.join();
}

size_t ThreadPool::size() const {
  MutexLock lock(mu_);
  return workers_.size();
}

void ThreadPool::EnsureWorkers(size_t n) {
  n = std::min(n, kMaxWorkers);
  MutexLock lock(mu_);
  RRR_CHECK(!stop_) << "EnsureWorkers on a stopped pool";
  while (workers_.size() < n) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    RRR_CHECK(!stop_) << "Submit on a stopped pool";
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

bool ThreadPool::OnWorkerThread() { return t_on_pool_worker; }

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(0);  // leaked: outlives exit races
  return *pool;
}

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared state of one ParallelForChunked call: a chunk cursor plus a
/// count of finished chunks, so the caller waits for its chunks — not for
/// helper tasks that may still sit in a queue busy with other callers'
/// work. A helper that starts after the cursor ran out touches nothing but
/// this state, which its shared_ptr keeps alive past the call.
struct ParallelForState {
  // rrr-lockfree: dynamic chunk cursor, fetch_add is the whole protocol
  std::atomic<size_t> next{0};
  // rrr-lockfree: finished chunks; the one that completes the loop
  // notifies under `mu`, and the caller re-reads it under `mu`
  std::atomic<size_t> done{0};
  size_t n = 0;
  size_t grain = 1;
  size_t chunks = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;

  Mutex mu;
  CondVar done_cv;

  void RunChunks() {
    while (true) {
      const size_t begin = next.fetch_add(grain);
      if (begin >= n) return;
      (*body)(begin, std::min(begin + grain, n));
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        MutexLock lock(mu);
        done_cv.NotifyAll();
      }
    }
  }
};

}  // namespace

void ParallelForChunked(size_t threads, size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  if (threads <= 1 || n <= grain || ThreadPool::OnWorkerThread()) {
    body(0, n);
    return;
  }

  // Never more helpers than chunks-1: the caller runs chunks too.
  const size_t max_chunks = (n + grain - 1) / grain;
  const size_t helpers =
      std::min({threads - 1, max_chunks - 1, ThreadPool::kMaxWorkers});

  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->grain = grain;
  state->chunks = max_chunks;
  state->body = &body;

  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([state] { state->RunChunks(); });
  }

  state->RunChunks();
  MutexLock lock(state->mu);
  while (state->done.load(std::memory_order_acquire) != max_chunks) {
    state->done_cv.Wait(state->mu);
  }
}

void ParallelFor(size_t threads, size_t n,
                 const std::function<void(size_t)>& body) {
  ParallelForChunked(threads, n, 1, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

}  // namespace rrr
