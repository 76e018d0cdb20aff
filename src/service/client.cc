#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/random.h"

namespace rrr {
namespace service {

namespace {

/// A connect() interrupted by a signal (EINTR) keeps going in the kernel;
/// calling connect() again would fail with EALREADY. Waits for the pending
/// attempt to finish and reports whether it succeeded.
bool AwaitInterruptedConnect(int fd) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  int ready = 0;
  do {
    ready = ::poll(&p, 1, -1);
  } while (ready < 0 && errno == EINTR);
  if (ready != 1) return false;
  int error = 0;
  socklen_t len = sizeof(error);
  return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) == 0 &&
         error == 0;
}

}  // namespace

bool IsRetryableCode(const std::string& code) {
  return code == "busy" || code == "io_error" || code == "unavailable";
}

const std::string* Reply::Find(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& field : fields) {
    if (field.first == key) found = &field.second;
  }
  return found;
}

LineClient::~LineClient() { Close(); }

Status LineClient::Connect(const std::string& host, uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      !(errno == EINTR && AwaitInterruptedConnect(fd))) {
    ::close(fd);
    return Status::IoError("connect failed to " + host + ":" +
                           std::to_string(port));
  }
  fd_ = fd;
  buffer_.clear();
  host_ = host;
  port_ = port;
  return Status::OK();
}

void LineClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status LineClient::SendLine(const std::string& line) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t wrote = ::send(fd_, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("send failed");
    }
    sent += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

Result<std::string> LineClient::ReadLine() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got == 0) return Status::IoError("connection closed by server");
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("recv failed");
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

Result<Reply> LineClient::Request(const std::string& line) {
  Status sent = SendLine(line);
  if (!sent.ok()) return sent;
  Result<std::string> raw = ReadLine();
  if (!raw.ok()) return raw.status();
  return ParseReply(raw.value());
}

Result<Reply> LineClient::RequestWithRetry(const std::string& line,
                                           const RetryPolicy& policy,
                                           size_t* retries) {
  Rng jitter(policy.jitter_seed);
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  Result<Reply> last = Status::FailedPrecondition("not connected");
  for (size_t attempt = 1;; ++attempt) {
    // A transport fault leaves the stream desynced (a half-written request
    // or half-read reply), so retries only ever run on a fresh connection.
    if (!connected() && !host_.empty()) {
      const Status reconnected = Connect(host_, port_);
      if (!reconnected.ok()) last = reconnected;
    }
    if (connected()) {
      last = Request(line);
      if (last.ok() &&
          (last.value().ok || !IsRetryableCode(last.value().code))) {
        return last;
      }
      if (!last.ok()) Close();
    }
    if (attempt >= max_attempts) return last;
    if (retries != nullptr) ++*retries;
    uint64_t backoff_ms =
        std::min(policy.max_backoff_ms,
                 policy.initial_backoff_ms << std::min<size_t>(attempt - 1, 20));
    if (backoff_ms > 0) {
      // Jitter down to [backoff/2, backoff] so synchronized clients do not
      // re-dogpile an overloaded server on the same tick.
      backoff_ms -= static_cast<uint64_t>(jitter.Uniform() *
                                          static_cast<double>(backoff_ms / 2));
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }
}

Result<std::map<std::string, std::string>> LineClient::RequestStats() {
  Status sent = SendLine("STATS");
  if (!sent.ok()) return sent;
  std::map<std::string, std::string> stats;
  for (;;) {
    Result<std::string> raw = ReadLine();
    if (!raw.ok()) return raw.status();
    const std::string& line = raw.value();
    if (line == "END") return stats;
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::IoError("malformed STATS line: " + line);
    }
    stats[line.substr(0, space)] = line.substr(space + 1);
  }
}

Result<Reply> ParseReply(const std::string& line) {
  Reply reply;
  std::istringstream in(line);
  std::string leader;
  in >> leader;
  if (leader == "OK") {
    reply.ok = true;
    std::string token;
    while (in >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Status::IoError("malformed OK field: " + token);
      }
      reply.fields.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
    return reply;
  }
  if (leader == "ERR") {
    reply.ok = false;
    std::string token;
    if (in >> token && token.rfind("code=", 0) == 0) {
      reply.code = token.substr(5);
    } else {
      return Status::IoError("ERR reply missing code=: " + line);
    }
    // msg= is last and may contain spaces: take the raw remainder.
    const size_t msg_at = line.find(" msg=");
    if (msg_at != std::string::npos) reply.msg = line.substr(msg_at + 5);
    return reply;
  }
  return Status::IoError("unrecognized reply leader: " + line);
}

}  // namespace service
}  // namespace rrr
