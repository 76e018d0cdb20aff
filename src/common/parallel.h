#ifndef RRR_COMMON_PARALLEL_H_
#define RRR_COMMON_PARALLEL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace rrr {

/// Number of hardware threads, never less than 1 (hardware_concurrency may
/// report 0 on exotic platforms).
size_t HardwareConcurrency();

/// Resolves a `threads` option field: 0 means "auto" (hardware concurrency),
/// any other value is taken literally. Every parallel-capable option struct
/// in the library uses this convention, so `threads = 1` always selects the
/// serial path and `threads = 0` scales to the machine.
size_t ResolveThreads(size_t threads_option);

/// \brief Fixed set of worker threads draining a shared FIFO task queue.
///
/// Deliberately work-stealing-free and dependency-light: one mutex, one
/// condition variable, one deque. Tasks must not block on other pool tasks
/// (ParallelFor guarantees this by running nested calls serially on the
/// calling worker). Workers are created lazily via EnsureWorkers so a
/// process that never goes parallel never spawns a thread.
class ThreadPool {
 public:
  /// Creates the pool with `num_threads` workers (may be 0; grow later).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current worker count.
  size_t size() const;

  /// Grows the pool to at least `n` workers (capped at kMaxWorkers).
  void EnsureWorkers(size_t n);

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this process's pool workers
  /// (used by ParallelFor to refuse nested parallelism).
  static bool OnWorkerThread();

  /// Lazily-constructed process-wide pool shared by every ParallelFor call.
  /// Sized on demand; destroyed at process exit.
  static ThreadPool& Shared();

  /// Hard cap on workers in one pool; a guard against runaway
  /// oversubscription, far above any sane `threads` setting.
  static constexpr size_t kMaxWorkers = 256;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ RRR_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ RRR_GUARDED_BY(mu_);
  bool stop_ RRR_GUARDED_BY(mu_) = false;
};

/// \brief Runs body(begin, end) over disjoint chunks covering [0, n),
/// distributing chunks dynamically over `threads` threads (the caller
/// participates, so `threads` counts the caller).
///
/// Chunks are at least `grain` indices; scheduling is dynamic (an atomic
/// cursor), so the assignment of chunks to threads is nondeterministic but
/// the set of chunks is fixed. Callers that write results indexed by `i`
/// get deterministic output regardless of thread count.
///
/// Serial cases — threads <= 1, n <= grain, or a call made from inside a
/// pool worker (nested parallelism) — run body(0, n) on the calling thread
/// and touch no synchronization at all. Otherwise the call returns once
/// every chunk has finished, whether or not its helper tasks ever left the
/// pool's queue (the caller drains the chunks itself when the pool is busy
/// with other work).
void ParallelForChunked(size_t threads, size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& body);

/// Element-wise convenience wrapper: body(i) for i in [0, n).
void ParallelFor(size_t threads, size_t n,
                 const std::function<void(size_t)>& body);

}  // namespace rrr

#endif  // RRR_COMMON_PARALLEL_H_
