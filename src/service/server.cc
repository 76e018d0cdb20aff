#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/solver.h"
#include "service/protocol.h"

namespace rrr {
namespace service {

namespace {

/// Completion slot a connection thread waits on while its query runs on
/// the admission pool.
struct JobState {
  Mutex mu;
  CondVar cv;
  bool done RRR_GUARDED_BY(mu) = false;
  std::string reply RRR_GUARDED_BY(mu);
};

/// Buffered newline-delimited reader over a connected socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line without its newline; IoError on EOF or socket error.
  Result<std::string> ReadLine() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        // Injected only once a complete request arrived: an armed fault
        // hits the connection actually carrying traffic, never a peer
        // parked in recv() (a `once` would otherwise land on whichever
        // idle connection re-entered its read loop first).
        RRR_FAILPOINT("service.socket.read");
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got == 0) return Status::IoError("connection closed");
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("recv failed");
      }
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Writes the whole buffer; false on a broken connection.
bool WriteAll(int fd, const std::string& data) {
  // Folded to the errno-style contract: an injected fault reads as the
  // peer breaking the connection mid-write.
  if (!RRR_FAILPOINT_STATUS("service.socket.write").ok()) return false;
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t wrote =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(wrote);
  }
  return true;
}

/// True when the peer closed or broke the connection. A non-blocking peek:
/// pending request bytes (a pipelining client) read as "still connected".
bool ClientDisconnected(int fd) {
  char probe;
  const ssize_t got = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (got > 0) return false;
  if (got == 0) return true;  // orderly shutdown
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

bool IsQueryVerb(const std::string& verb) {
  return verb == "SOLVE" || verb == "DUAL" || verb == "EVAL" ||
         verb == "SLEEP";
}

/// Spaces break the key=value grammar; error text goes underscore-joined.
std::string Sanitize(std::string text) {
  for (char& c : text) {
    if (c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return text;
}

std::string FormatBool(bool value) { return value ? "1" : "0"; }

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

}  // namespace

RrrServer::RrrServer(const Options& options)
    : options_(options),
      registry_(DatasetRegistry::Options{
          options.loader_threads, options.artifact_budget_bytes}),
      admission_(AdmissionQueue::Options{options.workers,
                                         options.queue_depth}) {}

RrrServer::~RrrServer() { Stop(); }

Status RrrServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IoError("bind failed on port " +
                           std::to_string(options_.port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IoError("listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname failed");
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  RRR_LOG(INFO) << "rrr_serverd listening on 127.0.0.1:" << port_;
  return Status::OK();
}

void RrrServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  {
    // Wake connection threads blocked in recv; their in-flight queries
    // observe the dead socket in the wait loop and cancel.
    MutexLock lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Re-sweep: a connection the accept loop registered AFTER the sweep
    // above raced past it (accept returned before stopping_ was set, the
    // insert landed after the sweep). With the accept thread joined the
    // set is final, so this pass catches the stragglers — otherwise the
    // join below waits forever on a thread parked in recv.
    MutexLock lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::unordered_map<std::thread::id, std::thread> threads;
  {
    MutexLock lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (auto& [id, thread] : threads) thread.join();
}

void RrrServer::AcceptLoop() {
  for (;;) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0 || stopping_.load(std::memory_order_acquire)) return;
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int cfd =
        ::accept(lfd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (cfd < 0) {
      if (errno == EINTR && !stopping_.load(std::memory_order_acquire)) {
        continue;
      }
      return;  // listener shut down (Stop) or fatally broken
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(cfd);
      return;
    }
    // An injected accept fault drops this one connection (as a flaky NIC
    // would) and keeps the loop serving — never kills the listener.
    if (!RRR_FAILPOINT_STATUS("service.socket.accept").ok()) {
      ::close(cfd);
      continue;
    }
    {
      MutexLock lock(stats_mu_);
      ++counters_.connections_total;
    }
    // Register the connection and take the threads of the ones that have
    // finished since the last accept; they are joined outside the lock.
    std::vector<std::thread> finished;
    {
      MutexLock lock(conn_mu_);
      for (const std::thread::id id : finished_conns_) {
        finished.push_back(std::move(conn_threads_.extract(id).mapped()));
      }
      finished_conns_.clear();
      conn_fds_.insert(cfd);
      std::thread thread([this, cfd] {
        ServeConnection(cfd);
        MutexLock done(conn_mu_);
        finished_conns_.push_back(std::this_thread::get_id());
      });
      const std::thread::id id = thread.get_id();
      conn_threads_.emplace(id, std::move(thread));
    }
    for (std::thread& thread : finished) thread.join();
  }
}

void RrrServer::ServeConnection(int fd) {
  LineReader reader(fd);
  bool quit = false;
  while (!quit && !stopping_.load(std::memory_order_acquire)) {
    Result<std::string> line = reader.ReadLine();
    if (!line.ok()) break;  // client went away
    if (line.value().empty()) continue;
    Result<Command> cmd = ParseCommand(line.value());
    std::string reply;
    if (!cmd.ok()) {
      MutexLock lock(stats_mu_);
      ++counters_.errors;
      reply = FormatErr(cmd.status());
    } else if (IsQueryVerb(cmd.value().verb)) {
      reply = DispatchQuery(cmd.value(), fd);
    } else {
      reply = HandleControl(cmd.value(), &quit);
    }
    if (!WriteAll(fd, reply + "\n")) break;
  }
  {
    // Deregister BEFORE close: once closed, the kernel may hand this fd
    // number to a concurrent accept, and erasing afterwards would strip
    // the NEW connection's registration — leaving it invisible to Stop's
    // shutdown sweep and its thread unjoinable.
    MutexLock lock(conn_mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
}

std::string RrrServer::HandleControl(const Command& cmd, bool* quit) {
  if (cmd.verb == "PING") return FormatOk({});
  if (cmd.verb == "QUIT") {
    *quit = true;
    return FormatOk({});
  }
  if (cmd.verb == "STATS") return RenderStats();
  if (cmd.verb == "FAILPOINT") return HandleFailpoint(cmd);
  if (cmd.verb == "REGISTER") {
    Result<std::string> name = cmd.GetString("name");
    if (!name.ok()) return FormatErr(name.status());
    Result<DatasetSpec> spec = DatasetSpec::FromCommand(cmd);
    if (!spec.ok()) return FormatErr(spec.status());
    const Status registered =
        registry_.Register(name.value(), std::move(spec).value());
    if (!registered.ok()) return FormatErr(registered);
    return FormatOk({{"name", name.value()}, {"state", "LOADING"}});
  }
  if (cmd.verb == "STATUS") {
    Result<std::string> name = cmd.GetString("name");
    if (!name.ok()) return FormatErr(name.status());
    Result<DatasetRegistry::EntryReport> report =
        registry_.Report(name.value());
    if (!report.ok()) return FormatErr(report.status());
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("state", DatasetStateName(report.value().state));
    if (report.value().state == DatasetState::kReady) {
      fields.emplace_back("version", report.value().version.ToString());
      fields.emplace_back("rows", std::to_string(report.value().rows));
      fields.emplace_back("dims", std::to_string(report.value().dims));
      fields.emplace_back("dynamic", FormatBool(report.value().dynamic));
    }
    if (report.value().state == DatasetState::kFailed) {
      fields.emplace_back("error", Sanitize(report.value().error));
    }
    return FormatOk(fields);
  }
  if (cmd.verb == "APPEND") {
    Result<std::string> name = cmd.GetString("name");
    if (!name.ok()) return FormatErr(name.status());
    std::vector<std::vector<double>> rows;
    if (const std::string* row = cmd.Find("row")) {
      Result<std::vector<double>> parsed = ParseDoubleList(*row);
      if (!parsed.ok()) return FormatErr(parsed.status());
      rows.push_back(std::move(parsed).value());
    } else if (const std::string* batch = cmd.Find("rows")) {
      // Semicolon-separated rows of comma-separated doubles.
      size_t start = 0;
      const std::string& text = *batch;
      while (start <= text.size()) {
        const size_t semi = text.find(';', start);
        const std::string part =
            semi == std::string::npos ? text.substr(start)
                                      : text.substr(start, semi - start);
        Result<std::vector<double>> parsed = ParseDoubleList(part);
        if (!parsed.ok()) return FormatErr(parsed.status());
        rows.push_back(std::move(parsed).value());
        if (semi == std::string::npos) break;
        start = semi + 1;
      }
    } else {
      return FormatErr(
          Status::InvalidArgument("APPEND: row= or rows= required"));
    }
    Result<DatasetVersion> version = registry_.Append(name.value(), rows);
    if (!version.ok()) return FormatErr(version.status());
    {
      MutexLock lock(stats_mu_);
      counters_.appended_rows += rows.size();
    }
    return FormatOk({{"version", version.value().ToString()},
                     {"appended", std::to_string(rows.size())}});
  }
  if (cmd.verb == "DELETE") {
    Result<std::string> name = cmd.GetString("name");
    if (!name.ok()) return FormatErr(name.status());
    Result<uint64_t> id = cmd.GetUint("id");
    if (!id.ok()) return FormatErr(id.status());
    // Row ids are int32: a wider value must not wrap onto some other row.
    if (id.value() >
        static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
      return FormatErr(Status::InvalidArgument(
          "DELETE: id out of range: " + std::to_string(id.value())));
    }
    Result<DatasetVersion> version = registry_.Delete(
        name.value(), static_cast<int32_t>(id.value()));
    if (!version.ok()) return FormatErr(version.status());
    return FormatOk({{"version", version.value().ToString()}});
  }
  if (cmd.verb == "UNREGISTER") {
    Result<std::string> name = cmd.GetString("name");
    if (!name.ok()) return FormatErr(name.status());
    const Status dropped = registry_.Unregister(name.value());
    if (!dropped.ok()) return FormatErr(dropped);
    return FormatOk({});
  }
  MutexLock lock(stats_mu_);
  ++counters_.errors;
  return FormatErr(Status::InvalidArgument("unknown verb: " + cmd.verb));
}

std::string RrrServer::HandleFailpoint(const Command& cmd) {
  FailpointRegistry& failpoints = FailpointRegistry::Instance();
  Result<uint64_t> clear = cmd.GetUintOr("clear", 0);
  if (!clear.ok()) return FormatErr(clear.status());
  if (clear.value() != 0) {
    failpoints.DisarmAll();
    return FormatOk({{"cleared", "1"}});
  }
  Result<uint64_t> list = cmd.GetUintOr("list", 0);
  if (!list.ok()) return FormatErr(list.status());
  if (list.value() != 0) {
    // One field per site: NAME=policy:evaluations:injections (the value
    // grammar forbids spaces; the canonical spec strings never have any).
    const std::vector<FailpointRegistry::SiteReport> sites =
        failpoints.List();
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("count", std::to_string(sites.size()));
    for (const FailpointRegistry::SiteReport& site : sites) {
      fields.emplace_back(site.site,
                          site.policy + ":" +
                              std::to_string(site.evaluations) + ":" +
                              std::to_string(site.injections));
    }
    return FormatOk(fields);
  }
  Result<std::string> site = cmd.GetString("site");
  if (!site.ok()) return FormatErr(site.status());
  Result<std::string> spec = cmd.GetString("spec");
  if (!spec.ok()) return FormatErr(spec.status());
  const Status armed = failpoints.Arm(site.value(), spec.value());
  if (!armed.ok()) return FormatErr(armed);
  return FormatOk({{"site", site.value()}, {"spec", spec.value()}});
}

std::string RrrServer::DispatchQuery(const Command& cmd, int fd) {
  Result<uint64_t> deadline_ms = cmd.GetUintOr("deadline_ms", 0);
  if (!deadline_ms.ok()) return FormatErr(deadline_ms.status());
  CancellationSource cancel;
  ExecContext ctx;
  ctx.cancel = cancel.token();
  if (deadline_ms.value() != 0) {
    // The deadline starts at ADMISSION and covers queue wait: an
    // overloaded server times queries out instead of running stale work.
    ctx.deadline =
        Deadline::After(static_cast<double>(deadline_ms.value()) / 1000.0);
  }

  // Resolve the dataset NOW — before queueing — so the query is pinned to
  // the version current at admission (APPEND/DELETE published while it
  // waits never tear it), and bad requests fail fast without a queue slot.
  // The admission stopwatch feeds the latency histogram: like the
  // deadline, it starts here and covers queue wait.
  const Stopwatch admitted_at;
  std::function<std::string()> work;
  if (cmd.verb == "SLEEP") {
    Result<uint64_t> ms = cmd.GetUint("ms");
    if (!ms.ok()) return FormatErr(ms.status());
    const uint64_t total_ms = ms.value();
    work = [this, total_ms, ctx, admitted_at]() -> std::string {
      const auto start = std::chrono::steady_clock::now();
      for (;;) {
        const Status preempted = ctx.CheckPreempted();
        if (!preempted.ok()) {
          QueryFacts facts;
          facts.latency_seconds = admitted_at.ElapsedSeconds();
          return FinishQuery(preempted, {}, facts);
        }
        const auto elapsed = std::chrono::duration_cast<
            std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                       start);
        if (elapsed.count() >= static_cast<int64_t>(total_ms)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      QueryFacts facts;
      facts.latency_seconds = admitted_at.ElapsedSeconds();
      return FinishQuery(Status::OK(),
                         {{"slept_ms", std::to_string(total_ms)}}, facts);
    };
  } else {
    Result<std::string> name = cmd.GetString("name");
    if (!name.ok()) return FormatErr(name.status());
    Result<DatasetRegistry::Acquired> acquired =
        registry_.Acquire(name.value());
    if (!acquired.ok()) return FormatErr(acquired.status());
    core::QueryOptions query;
    query.exec = ctx;
    query.snapshot = acquired.value().snapshot;
    Result<uint64_t> use_cache = cmd.GetUintOr("cache", 1);
    if (!use_cache.ok()) return FormatErr(use_cache.status());
    query.use_cache = use_cache.value() != 0;
    if (const std::string* algo = cmd.Find("algo")) {
      Result<core::Algorithm> parsed = core::ParseAlgorithm(*algo);
      if (!parsed.ok()) return FormatErr(parsed.status());
      query.algorithm = parsed.value();
    }
    std::shared_ptr<core::RrrEngine> engine = acquired.value().engine;

    if (cmd.verb == "SOLVE") {
      Result<uint64_t> k = cmd.GetUint("k");
      if (!k.ok()) return FormatErr(k.status());
      work = [this, engine, query, admitted_at, k = k.value()]() -> std::string {
        Result<core::QueryResult> result =
            engine->Solve(static_cast<size_t>(k), query);
        QueryFacts facts;
        facts.latency_seconds = admitted_at.ElapsedSeconds();
        if (!result.ok()) return FinishQuery(result.status(), {}, facts);
        const core::QueryResult& r = result.value();
        facts.memo_hit = r.diagnostics.result_from_cache;
        facts.degraded = r.diagnostics.degraded;
        // Memo hits carry the ORIGINAL run's scan counters; folding them
        // in again would double-count the same blocks.
        if (!facts.memo_hit) {
          facts.blocks_scanned = r.diagnostics.blocks_scanned;
          facts.blocks_skipped = r.diagnostics.blocks_skipped;
        }
        return FinishQuery(
            Status::OK(),
            {{"k", std::to_string(k)},
             {"version", r.diagnostics.dataset_version.ToString()},
             {"algorithm", core::AlgorithmName(r.diagnostics.algorithm_used)},
             {"cached", FormatBool(r.diagnostics.result_from_cache)},
             {"seconds", FormatSeconds(r.diagnostics.seconds)},
             {"size", std::to_string(r.representative.size())},
             {"ids", JoinIds(r.representative)},
             {"degraded", FormatBool(r.diagnostics.degraded)}},
            facts);
      };
    } else if (cmd.verb == "DUAL") {
      Result<uint64_t> max_size = cmd.GetUint("max_size");
      if (!max_size.ok()) return FormatErr(max_size.status());
      work = [this, engine, query, admitted_at,
              max_size = max_size.value()]() -> std::string {
        Result<core::DualResult> result =
            engine->SolveDual(static_cast<size_t>(max_size), query);
        QueryFacts facts;
        facts.latency_seconds = admitted_at.ElapsedSeconds();
        if (!result.ok()) return FinishQuery(result.status(), {}, facts);
        const core::DualResult& r = result.value();
        facts.degraded = r.degraded;
        facts.blocks_scanned = r.blocks_scanned;
        facts.blocks_skipped = r.blocks_skipped;
        return FinishQuery(
            Status::OK(),
            {{"k", std::to_string(r.k)},
             {"algorithm", core::AlgorithmName(r.algorithm_used)},
             {"seconds", FormatSeconds(r.seconds)},
             {"size", std::to_string(r.representative.size())},
             {"ids", JoinIds(r.representative)},
             {"degraded", FormatBool(r.degraded)}},
            facts);
      };
    } else {  // EVAL
      Result<std::string> ids_text = cmd.GetString("ids");
      if (!ids_text.ok()) return FormatErr(ids_text.status());
      Result<std::vector<int32_t>> ids = ParseIdList(ids_text.value());
      if (!ids.ok()) return FormatErr(ids.status());
      Result<uint64_t> k = cmd.GetUint("k");
      if (!k.ok()) return FormatErr(k.status());
      work = [this, engine, query, admitted_at, ids = std::move(ids).value(),
              k = k.value()]() -> std::string {
        Result<core::EvalReport> result =
            engine->Evaluate(ids, static_cast<size_t>(k), query);
        QueryFacts facts;
        facts.latency_seconds = admitted_at.ElapsedSeconds();
        if (!result.ok()) return FinishQuery(result.status(), {}, facts);
        const core::EvalReport& r = result.value();
        facts.degraded = r.diagnostics.degraded;
        facts.blocks_scanned = r.diagnostics.blocks_scanned;
        facts.blocks_skipped = r.diagnostics.blocks_skipped;
        return FinishQuery(
            Status::OK(),
            {{"rank_regret", std::to_string(r.rank_regret)},
             {"exact", FormatBool(r.exact)},
             {"within_k", FormatBool(r.within_k)},
             {"version", r.diagnostics.dataset_version.ToString()},
             {"degraded", FormatBool(r.diagnostics.degraded)}},
            facts);
      };
    }
  }

  auto state = std::make_shared<JobState>();
  const Status admitted = admission_.TrySubmit([state, work] {
    std::string reply = work();
    MutexLock lock(state->mu);
    state->reply = std::move(reply);
    state->done = true;
    state->cv.NotifyAll();
  });
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kResourceExhausted) {
      return FormatBusy(Sanitize(admitted.message()));
    }
    return FormatErr(admitted);
  }

  // Wait for completion, watching the socket: a client that disconnects
  // mid-query cancels it (the worker observes the token at its next
  // preemption point; the admitted job always finishes, so this wait
  // always terminates).
  bool disconnect_cancelled = false;
  for (;;) {
    {
      MutexLock lock(state->mu);
      if (!state->done) {
        state->cv.WaitFor(state->mu, std::chrono::milliseconds(20));
      }
      if (state->done) return state->reply;
    }
    if (!disconnect_cancelled && ClientDisconnected(fd)) {
      cancel.RequestCancel();
      disconnect_cancelled = true;
      MutexLock lock(stats_mu_);
      ++counters_.disconnect_cancels;
    }
  }
}

std::string RrrServer::FinishQuery(
    const Status& status,
    const std::vector<std::pair<std::string, std::string>>& fields,
    const QueryFacts& facts) {
  // Bucket by first bound >= latency; past the last bound, overflow.
  size_t bucket = kLatencyBuckets - 1;
  for (size_t i = 0; i + 1 < kLatencyBuckets; ++i) {
    if (facts.latency_seconds <= kLatencyBoundsSeconds[i]) {
      bucket = i;
      break;
    }
  }
  {
    MutexLock lock(stats_mu_);
    ++counters_.queries_total;
    if (facts.memo_hit) ++counters_.memo_hits;
    if (facts.degraded) ++counters_.degraded_queries;
    counters_.blocks_scanned += facts.blocks_scanned;
    counters_.blocks_skipped += facts.blocks_skipped;
    ++counters_.latency_buckets[bucket];
    if (status.code() == StatusCode::kDeadlineExceeded) {
      ++counters_.deadline_exceeded;
    } else if (status.code() == StatusCode::kCancelled) {
      ++counters_.cancelled;
    } else if (!status.ok()) {
      ++counters_.errors;
    }
  }
  // Budget enforcement rides query completion: the one place artifact
  // bytes can have just grown.
  registry_.EnforceBudget();
  if (!status.ok()) return FormatErr(status);
  return FormatOk(fields);
}

std::string RrrServer::RenderStats() {
  Counters counters;
  {
    MutexLock lock(stats_mu_);
    counters = counters_;
  }
  const DatasetRegistry::Stats registry = registry_.GetStats();
  const AdmissionQueue::Stats admission = admission_.GetStats();
  size_t connections = 0;
  {
    MutexLock lock(conn_mu_);
    connections = conn_fds_.size();
  }
  std::string out;
  const auto add = [&out](const std::string& key, size_t value) {
    out += key;
    out += " ";
    out += std::to_string(value);
    out += "\n";
  };
  add("datasets", registry.datasets);
  add("datasets_ready", registry.ready);
  add("queries_total", counters.queries_total);
  add("memo_hits", counters.memo_hits);
  add("deadline_exceeded", counters.deadline_exceeded);
  add("cancelled", counters.cancelled);
  add("disconnect_cancels", counters.disconnect_cancels);
  add("errors", counters.errors);
  add("degraded_queries", counters.degraded_queries);
  add("blocks_scanned", counters.blocks_scanned);
  add("blocks_skipped", counters.blocks_skipped);
  // Latency histogram: one line per kLatencyBoundsSeconds bucket plus the
  // overflow; labels mirror the bounds (sum of all buckets ==
  // queries_total).
  static constexpr const char* kLatencyLabels[] = {
      "100us", "316us", "1ms", "3.2ms", "10ms", "32ms",
      "100ms", "316ms", "1s",  "3.2s",  "10s"};
  static_assert(sizeof(kLatencyLabels) / sizeof(kLatencyLabels[0]) + 1 ==
                    kLatencyBuckets,
                "latency labels must match the bucket bounds");
  for (size_t i = 0; i + 1 < kLatencyBuckets; ++i) {
    add(std::string("latency_le_") + kLatencyLabels[i],
        counters.latency_buckets[i]);
  }
  add("latency_gt_10s", counters.latency_buckets[kLatencyBuckets - 1]);
  add("appended_rows", counters.appended_rows);
  add("connections", connections);
  add("connections_total", counters.connections_total);
  add("queue_depth", admission.queued);
  add("active_queries", admission.active);
  add("accepted", admission.accepted);
  add("busy_rejections", admission.rejected_busy);
  add("completed", admission.completed);
  add("cache_bytes", registry.cache_bytes);
  add("evictions", registry.evictions);
  add("evicted_bytes", registry.evicted_bytes);
  for (const DatasetRegistry::Stats::PerDataset& per : registry.per_dataset) {
    out += "dataset." + per.name + ".state ";
    out += DatasetStateName(per.state);
    out += "\n";
    add("dataset." + per.name + ".bytes", per.bytes);
  }
  out += "END";
  return out;
}

}  // namespace service
}  // namespace rrr
