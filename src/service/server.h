#ifndef RRR_SERVICE_SERVER_H_
#define RRR_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/admission.h"
#include "service/registry.h"

namespace rrr {
namespace service {

/// \brief rrr_serverd's long-lived core: a plain-TCP line-protocol server
/// (service/protocol.h) over the dataset registry and the bounded query
/// pool. Embeddable for tests; the binary is a thin main() around it.
///
/// \par Dispatch model
/// One thread per connection reads requests. Control verbs (REGISTER,
/// STATUS, APPEND, DELETE, UNREGISTER, STATS, PING, QUIT) execute inline —
/// they are cheap and must stay responsive under query load. Query verbs
/// (SOLVE, DUAL, EVAL, SLEEP) resolve their dataset snapshot at ADMISSION
/// time — pinning the version before the job waits in queue, so an APPEND
/// published while the query is queued or running never tears its result —
/// then run on the admission pool; the connection thread waits, polling
/// its socket so a client disconnect cancels the query's ExecContext.
/// Per-query deadlines (`deadline_ms`) start at admission and cover queue
/// wait; an expired deadline surfaces as ERR code=deadline_exceeded.
class RrrServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
    uint16_t port = 0;
    /// Query workers (concurrent SOLVE/DUAL/EVAL/SLEEP executions).
    size_t workers = 4;
    /// Bounded admission queue depth; past it, queries get ERR code=busy.
    size_t queue_depth = 16;
    /// Registry loader threads for background REGISTER prepares.
    size_t loader_threads = 2;
    /// Evictable artifact-byte budget across datasets; 0 = unlimited.
    size_t artifact_budget_bytes = 0;
  };

  explicit RrrServer(const Options& options);

  /// Stops and joins everything still running.
  ~RrrServer();

  RrrServer(const RrrServer&) = delete;
  RrrServer& operator=(const RrrServer&) = delete;

  /// Binds, listens, and starts the accept loop. IoError on bind failure.
  Status Start();

  /// Graceful shutdown: stop accepting, shut down client sockets (their
  /// in-flight queries observe the disconnect and cancel), drain the
  /// admission pool, join all threads. Idempotent.
  void Stop();

  /// The bound port (after Start; resolves ephemeral port 0 bindings).
  uint16_t port() const { return port_; }

  DatasetRegistry& registry() { return registry_; }

 private:
  /// Fixed log-spaced latency histogram bounds (seconds): half-decade
  /// steps from 100us to 10s, with one overflow bucket past the last
  /// bound — kLatencyBuckets counters total.
  static constexpr double kLatencyBoundsSeconds[] = {
      100e-6, 316e-6, 1e-3, 3.16e-3, 10e-3, 31.6e-3,
      100e-3, 316e-3, 1.0,  3.16,    10.0};
  static constexpr size_t kLatencyBuckets =
      sizeof(kLatencyBoundsSeconds) / sizeof(kLatencyBoundsSeconds[0]) + 1;

  /// One STATS-able counter block (guarded; workers and connection
  /// threads update it concurrently).
  struct Counters {
    size_t queries_total = 0;
    size_t memo_hits = 0;
    size_t deadline_exceeded = 0;
    size_t cancelled = 0;
    size_t disconnect_cancels = 0;
    size_t errors = 0;
    size_t appended_rows = 0;
    size_t connections_total = 0;
    /// Queries that succeeded on a degraded path (the candidate-index build
    /// failed and the engine fell back to the unpruned scan,
    /// bit-identically).
    size_t degraded_queries = 0;
    /// Block-max pruning totals over every finished query's compute
    /// (memo hits contribute nothing — their scans ran in the original
    /// query). See core::Diagnostics::blocks_scanned.
    uint64_t blocks_scanned = 0;
    uint64_t blocks_skipped = 0;
    /// Per-query admission-to-completion latency histogram; bucket i
    /// counts latencies <= kLatencyBoundsSeconds[i], the last bucket
    /// overflows. Every finished query (ok, error, cancelled) lands in
    /// exactly one bucket.
    size_t latency_buckets[kLatencyBuckets] = {};
  };

  /// What a finished query reports into the counters beyond its status.
  struct QueryFacts {
    bool memo_hit = false;
    bool degraded = false;
    /// Admission-to-completion seconds (queue wait included, like the
    /// deadline).
    double latency_seconds = 0.0;
    uint64_t blocks_scanned = 0;
    uint64_t blocks_skipped = 0;
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  /// Inline control verbs; returns the response line.
  std::string HandleControl(const Command& cmd, bool* quit);

  /// The FAILPOINT admin verb: arms/disarms fault-injection sites on a
  /// live server (site=NAME spec=POLICY | site=NAME off | clear=1 |
  /// list=1). Test/chaos tooling only — an unarmed server pays nothing.
  std::string HandleFailpoint(const Command& cmd);

  /// Query verbs: admission-time snapshot resolution, bounded dispatch,
  /// disconnect-polling wait. Returns the response line.
  std::string DispatchQuery(const Command& cmd, int fd);

  /// Runs on the worker at query end: folds `status` and the query's
  /// facts (memo hit, degradation, latency bucket, block-scan counters)
  /// into the counters, enforces the artifact budget, and renders the
  /// reply line.
  std::string FinishQuery(
      const Status& status,
      const std::vector<std::pair<std::string, std::string>>& fields,
      const QueryFacts& facts);

  /// Renders the multi-line STATS body (terminated by END).
  std::string RenderStats();

  Options options_;
  Mutex stats_mu_;
  Counters counters_ RRR_GUARDED_BY(stats_mu_);
  DatasetRegistry registry_;
  AdmissionQueue admission_;

  // rrr-lockfree: sticky shutdown flag, checked by accept/serve loops
  std::atomic<bool> stopping_{false};
  // rrr-lockfree: set once by Start before the accept thread launches
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;

  Mutex conn_mu_;
  std::unordered_set<int> conn_fds_ RRR_GUARDED_BY(conn_mu_);
  std::unordered_map<std::thread::id, std::thread> conn_threads_
      RRR_GUARDED_BY(conn_mu_);
  // Connection threads that have served their last line and only await a
  // join; the accept loop joins them, so finished connections do not keep
  // their stacks mapped until Stop.
  std::vector<std::thread::id> finished_conns_ RRR_GUARDED_BY(conn_mu_);
  std::thread accept_thread_;  // started by Start, joined by Stop
};

}  // namespace service
}  // namespace rrr

#endif  // RRR_SERVICE_SERVER_H_
