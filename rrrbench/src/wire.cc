// The wire side: a fresh rrr_serverd child per set-up round, blocking
// line-protocol connections with a hard socket timeout, closed-loop
// sessions and the open-loop writer.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace rrrbench {

double Now();  // run clock, defined in main.cc

namespace {

/// The rrr_serverd child. Stop() (or the destructor) always reaps it.
class Daemon {
 public:
  static rrr::Result<std::unique_ptr<Daemon>> Launch(
      const std::string& binary, const std::string& log_path) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) return rrr::Status::IoError("cannot open " + log_path);
    const off_t log_start = ::lseek(log_fd, 0, SEEK_END);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(log_fd);
      return rrr::Status::IoError("fork failed");
    }
    if (pid == 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
      const char* argv[] = {binary.c_str(), "--port=0", nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
    ::close(log_fd);
    std::unique_ptr<Daemon> daemon(new Daemon(pid));
    // The daemon prints "listening port=N" once bound.
    const double give_up = Now() + 20.0;
    while (Now() < give_up) {
      std::ifstream in(log_path);
      in.seekg(log_start);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find("listening port=");
        if (at != std::string::npos) {
          daemon->port_ = std::atoi(line.c_str() + at + 15);
          return daemon;
        }
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        daemon->pid_ = -1;
        return rrr::Status::Internal("rrr_serverd exited during start-up; see " +
                                     log_path);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return rrr::Status::DeadlineExceeded("rrr_serverd never reported a port");
  }

  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// High-water resident set (VmHWM) in MiB; 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  /// SIGTERM (graceful drain), SIGKILL after a grace period; always reaps.
  /// True when the daemon exited 0 on its own.
  bool Stop() {
    if (pid_ < 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    const double give_up = Now() + 15.0;
    while (Now() < give_up) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  explicit Daemon(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  int port_ = 0;
};

/// One blocking client connection with a hard per-read timeout.
class Connection {
 public:
  static rrr::Result<std::unique_ptr<Connection>> Open(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return rrr::Status::IoError("socket() failed");
    std::unique_ptr<Connection> conn(new Connection(fd));
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(kSocketTimeoutSeconds);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return rrr::Status::IoError("connect failed");
    }
    return conn;
  }

  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and reads one reply line; false on timeout or
  /// a broken connection.
  bool Call(const std::string& line, std::string* reply) {
    const std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return ReadLine(reply);
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return false;  // EOF, error, or SO_RCVTIMEO expiry
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

/// Sends `request`, stamping client-side times; `due` < 0 means "now".
Exchange Send(Connection* conn, bool measured, const Request& request,
              double due = -1.0) {
  Exchange ex;
  ex.measured = measured;
  ex.request = request;
  const double sent = Now();
  std::string line;
  const bool answered = conn->Call(request.Line(), &line);
  const double received = Now();
  if (answered) {
    ex.reply = Reply::Parse(line);
  } else {
    ex.reply.timed_out = true;
    ex.reply.error_code = "client_timeout";
  }
  ex.reply.sent = sent;
  ex.reply.due = due < 0 ? sent : due;
  ex.reply.received = received;
  return ex;
}

rrr::Result<ServerStats> ReadStats(int port) {
  std::unique_ptr<Connection> conn;
  RRR_ASSIGN_OR_RETURN(conn, Connection::Open(port));
  std::string line;
  if (!conn->Call("STATS", &line)) return rrr::Status::IoError("STATS failed");
  ServerStats stats;
  while (line != "END") {
    std::istringstream fields(line);
    std::string key;
    uint64_t value = 0;
    if (fields >> key >> value) stats.counters[key] = value;
    if (!conn->ReadLine(&line)) return rrr::Status::IoError("STATS cut off");
  }
  return stats;
}

/// REGISTER every dataset from its CSV, wait for READY, run the warm-up.
rrr::Status SetUp(const WorkloadPlan& plan, int port, bool record,
                  std::vector<Exchange>* exchanges) {
  std::unique_ptr<Connection> conn;
  RRR_ASSIGN_OR_RETURN(conn, Connection::Open(port));
  std::string line;
  for (const DatasetPlan& ds : plan.datasets) {
    const std::string cmd = "REGISTER name=" + ds.name + " csv=" +
                            ds.csv_path + (ds.dynamic ? " dynamic=1" : "");
    if (!conn->Call(cmd, &line) || line.rfind("OK", 0) != 0) {
      return rrr::Status::Internal("REGISTER " + ds.name + ": " + line);
    }
  }
  for (const DatasetPlan& ds : plan.datasets) {
    for (;;) {
      if (!conn->Call("STATUS name=" + ds.name, &line)) {
        return rrr::Status::IoError("STATUS " + ds.name + " failed");
      }
      if (line.find("state=READY") != std::string::npos) break;
      if (line.find("state=LOADING") == std::string::npos) {
        return rrr::Status::Internal("dataset " + ds.name + ": " + line);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (const Request& request : plan.warmup) {
    Exchange ex = Send(conn.get(), false, request);
    const bool timed_out = ex.reply.timed_out;
    if (record) exchanges->push_back(std::move(ex));
    if (timed_out) return rrr::Status::DeadlineExceeded("warm-up timed out");
  }
  return rrr::Status::OK();
}

}  // namespace

rrr::Result<WireRun> RunWire(const WorkloadPlan& plan,
                             const std::string& serverd,
                             const std::string& out_dir, double seconds) {
  WireRun run;
  const std::string log_path = out_dir + "/serverd.log";
  for (int round = 0; round < plan.setup_rounds; ++round) {
    const bool last = round + 1 == plan.setup_rounds;
    const double start = Now();
    std::unique_ptr<Daemon> daemon;
    RRR_ASSIGN_OR_RETURN(daemon, Daemon::Launch(serverd, log_path));
    RRR_RETURN_IF_ERROR(SetUp(plan, daemon->port(), last, &run.exchanges));
    run.setup_seconds.push_back(Now() - start);
    if (!last) {
      daemon->Stop();
      continue;
    }

    // Measured phase: closed-loop sessions plus the optional open-loop
    // writer, each on its own connection, until `seconds` pass or a request
    // times out.
    std::atomic<bool> abort{false};
    const size_t workers = plan.sessions.size() + (plan.writer ? 1 : 0);
    std::vector<std::vector<Exchange>> logs(workers);
    std::vector<std::string> failures(workers);
    run.phase_start = Now();
    const double stop_at = run.phase_start + seconds;
    std::vector<std::thread> threads;
    for (size_t s = 0; s < plan.sessions.size(); ++s) {
      threads.emplace_back([&, s] {
        rrr::Result<std::unique_ptr<Connection>> conn =
            Connection::Open(daemon->port());
        if (!conn.ok()) {
          failures[s] = conn.status().ToString();
          abort = true;
          return;
        }
        Script script = plan.sessions[s];
        const Exchange* last_ex = nullptr;
        while (!abort && Now() < stop_at) {
          std::optional<Request> next = script(last_ex);
          if (!next) break;
          logs[s].push_back(Send(conn.value().get(), true, *next));
          last_ex = &logs[s].back();
          if (last_ex->reply.timed_out) {
            failures[s] = "session " + std::to_string(s) + " timed out on " +
                          VerbName(next->verb);
            abort = true;
          }
        }
      });
    }
    if (plan.writer) {
      const size_t w = plan.sessions.size();
      threads.emplace_back([&, w] {
        rrr::Result<std::unique_ptr<Connection>> conn =
            Connection::Open(daemon->port());
        if (!conn.ok()) {
          failures[w] = conn.status().ToString();
          abort = true;
          return;
        }
        const WriterPlan& writer = *plan.writer;
        size_t rows = writer.initial_rows;
        for (size_t tick = 0; !abort; ++tick) {
          const double due = run.phase_start + tick * writer.period_seconds;
          if (due >= stop_at) break;
          while (Now() < due) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          const std::pair<Request, Request> writes = writer.Tick(tick, rows);
          for (const Request& request : {writes.first, writes.second}) {
            logs[w].push_back(Send(conn.value().get(), true, request, due));
            if (logs[w].back().reply.timed_out) {
              failures[w] = "writer timed out";
              abort = true;
              break;
            }
          }
          rows += writer.batch - 1;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    run.phase_end = run.phase_start;
    std::vector<Exchange> measured;
    for (std::vector<Exchange>& log : logs) {
      for (Exchange& ex : log) {
        run.phase_end = std::max(run.phase_end, ex.reply.received);
        measured.push_back(std::move(ex));
      }
    }
    std::stable_sort(measured.begin(), measured.end(),
                     [](const Exchange& a, const Exchange& b) {
                       return a.reply.sent < b.reply.sent;
                     });
    for (Exchange& ex : measured) run.exchanges.push_back(std::move(ex));
    for (const std::string& failure : failures) {
      if (!failure.empty()) {
        run.aborted = true;
        run.abort_reason += failure + "; ";
      }
    }
    if (!run.aborted) {
      rrr::Result<ServerStats> stats = ReadStats(daemon->port());
      if (stats.ok()) run.stats = std::move(stats).value();
    }
    run.peak_rss_mb = daemon->PeakRssMb();
    if (!daemon->Stop() && !run.aborted) {
      run.aborted = true;
      run.abort_reason += "rrr_serverd did not shut down cleanly; ";
    }
  }
  return run;
}

}  // namespace rrrbench
