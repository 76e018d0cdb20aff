#include "service/server.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "data/generators.h"
#include "service/client.h"
#include "service/protocol.h"

namespace rrr {
namespace service {
namespace {

/// Disarms every failpoint on scope exit so one test's faults never leak
/// into the next.
struct FailpointGuard {
  FailpointGuard() { FailpointRegistry::Instance().DisarmAll(); }
  ~FailpointGuard() { FailpointRegistry::Instance().DisarmAll(); }
};

using Stats = std::map<std::string, std::string>;

/// Connects a fresh client to the test server.
void Connect(const RrrServer& server, LineClient* client) {
  ASSERT_TRUE(client->Connect("127.0.0.1", server.port()).ok());
}

/// Polls STATUS until the dataset settles; fails the test on FAILED.
void AwaitReady(LineClient* client, const std::string& name) {
  for (int i = 0; i < 2000; ++i) {
    Result<Reply> reply = client->Request("STATUS name=" + name);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply.value().ok) << reply.value().code;
    const std::string* state = reply.value().Find("state");
    ASSERT_NE(state, nullptr);
    ASSERT_NE(*state, "FAILED") << name;
    if (*state == "READY") return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << name << " never became READY";
}

/// Polls STATS until `key` satisfies `pred` (or ~10s pass).
void AwaitStat(LineClient* client, const std::string& key,
               bool (*pred)(size_t), size_t* out = nullptr) {
  for (int i = 0; i < 2000; ++i) {
    Result<Stats> stats = client->RequestStats();
    ASSERT_TRUE(stats.ok());
    const auto it = stats.value().find(key);
    if (it != stats.value().end()) {
      const size_t value = std::stoull(it->second);
      if (pred(value)) {
        if (out != nullptr) *out = value;
        return;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "stat " << key << " never satisfied predicate";
}

/// The ids the server must report for SOLVE on a uniform(n, d, seed)
/// dataset — computed through the engine directly (same defaults the
/// registry uses).
std::string DirectSolveIds(size_t n, size_t d, uint64_t seed, size_t k) {
  Result<std::shared_ptr<core::RrrEngine>> engine =
      core::RrrEngine::Create(data::GenerateUniform(n, d, seed));
  EXPECT_TRUE(engine.ok());
  Result<core::QueryResult> result = engine.value()->Solve(k);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return JoinIds(result.value().representative);
}

TEST(Server, EndToEndTwoClientsConcurrentQueriesBitIdentical) {
  RrrServer::Options options;
  options.workers = 3;
  options.queue_depth = 16;
  RrrServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  // Two clients, two distinct datasets.
  LineClient alice, bob;
  Connect(server, &alice);
  Connect(server, &bob);
  ASSERT_TRUE(
      alice.Request("REGISTER name=alpha gen=uniform n=400 d=3 seed=3")
          .ok());
  ASSERT_TRUE(
      bob.Request("REGISTER name=beta gen=uniform n=300 d=2 seed=5").ok());
  AwaitReady(&alice, "alpha");
  AwaitReady(&bob, "beta");

  // Concurrent SOLVE/DUAL/EVAL from both clients.
  std::string alice_ids, bob_ids;
  std::thread alice_thread([&] {
    Result<Reply> solve = alice.Request("SOLVE name=alpha k=4");
    if (solve.ok() && solve.value().ok &&
        solve.value().Find("ids") != nullptr) {
      alice_ids = *solve.value().Find("ids");
      Result<Reply> eval =
          alice.Request("EVAL name=alpha ids=" + alice_ids + " k=4");
      EXPECT_TRUE(eval.ok() && eval.value().ok);
      if (eval.ok() && eval.value().ok) {
        EXPECT_EQ(*eval.value().Find("within_k"), "1");
      }
    } else {
      ADD_FAILURE() << "alice SOLVE failed";
    }
  });
  std::thread bob_thread([&] {
    Result<Reply> solve = bob.Request("SOLVE name=beta k=3");
    if (solve.ok() && solve.value().ok &&
        solve.value().Find("ids") != nullptr) {
      bob_ids = *solve.value().Find("ids");
    } else {
      ADD_FAILURE() << "bob SOLVE failed";
    }
    Result<Reply> dual = bob.Request("DUAL name=beta max_size=6");
    EXPECT_TRUE(dual.ok() && dual.value().ok);
  });
  alice_thread.join();
  bob_thread.join();

  // Server answers are bit-identical to direct engine calls.
  EXPECT_EQ(alice_ids, DirectSolveIds(400, 3, 3, 4));
  EXPECT_EQ(bob_ids, DirectSolveIds(300, 2, 5, 3));

  server.Stop();
}

TEST(Server, OutOfRangeIdsAreRejectedNotTruncated) {
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  Connect(server, &client);
  ASSERT_TRUE(
      client.Request("REGISTER name=dyn gen=uniform n=50 d=2 seed=7 dynamic=1")
          .ok());
  AwaitReady(&client, "dyn");
  auto rows = [&client]() -> std::string {
    Result<Reply> status = client.Request("STATUS name=dyn");
    if (!status.ok() || !status.value().ok) return "?";
    const std::string* value = status.value().Find("rows");
    return value == nullptr ? "?" : *value;
  };
  ASSERT_EQ(rows(), "50");

  // 2^32 and 2^32 + 1 would wrap onto rows 0 and 1.
  Result<Reply> del = client.Request("DELETE name=dyn id=4294967296");
  ASSERT_TRUE(del.ok());
  EXPECT_FALSE(del.value().ok);
  EXPECT_EQ(del.value().code, "invalid_argument");
  Result<Reply> eval = client.Request("EVAL name=dyn ids=4294967297 k=3");
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval.value().ok);
  EXPECT_EQ(eval.value().code, "invalid_argument");
  EXPECT_EQ(rows(), "50");

  // In-range ids still reach the data.
  Result<Reply> good = client.Request("DELETE name=dyn id=0");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().ok) << good.value().msg;
  EXPECT_EQ(rows(), "49");
  server.Stop();
}

/// This process's virtual size in KiB (the VmSize line of
/// /proc/self/status), or 0 when it cannot be read.
size_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(Server, FinishedConnectionThreadsAreJoinedWhileServing) {
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  auto ping_once = [&server] {
    LineClient client;
    Connect(server, &client);
    Result<Reply> ping = client.Request("PING");
    ASSERT_TRUE(ping.ok());
    EXPECT_TRUE(ping.value().ok);
  };
  ping_once();  // warm-up: first-connection allocations are not growth
  const size_t before = VmSizeKib();
  ASSERT_GT(before, 0u);
  // One connection at a time: a server that keeps every finished thread
  // until Stop keeps ~300 stacks of 8 MiB each mapped.
  for (int i = 0; i < 300; ++i) ping_once();
  const size_t after = VmSizeKib();
  EXPECT_LT(after, before + 256 * 1024)
      << "VmSize grew from " << before << " KiB to " << after << " KiB";
  server.Stop();
}

TEST(Server, DeadlineExceededSurfacesOnWire) {
  RrrServer::Options options;
  options.workers = 1;
  options.queue_depth = 4;
  RrrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient blocker, victim, control;
  Connect(server, &blocker);
  Connect(server, &victim);
  Connect(server, &control);

  // Occupy the single worker, then queue a query whose deadline (which
  // starts at admission) expires while it waits.
  ASSERT_TRUE(blocker.SendLine("SLEEP ms=400").ok());
  AwaitStat(&control, "active_queries", [](size_t v) { return v >= 1; });
  Result<Reply> late = victim.Request("SLEEP ms=300 deadline_ms=1");
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late.value().ok);
  EXPECT_EQ(late.value().code, "deadline_exceeded");
  ASSERT_TRUE(blocker.ReadLine().ok());  // drain the blocker's OK

  Result<Stats> stats = control.RequestStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(std::stoull(stats.value().at("deadline_exceeded")), 1u);
  server.Stop();
}

TEST(Server, BusyRejectionWhenQueueFull) {
  RrrServer::Options options;
  options.workers = 1;
  options.queue_depth = 0;  // nothing may wait: idle worker or busy
  RrrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient blocker, rejected, control;
  Connect(server, &blocker);
  Connect(server, &rejected);
  Connect(server, &control);

  ASSERT_TRUE(blocker.SendLine("SLEEP ms=500").ok());
  AwaitStat(&control, "active_queries", [](size_t v) { return v >= 1; });
  Result<Reply> busy = rejected.Request("SLEEP ms=10");
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(busy.value().ok);
  EXPECT_EQ(busy.value().code, "busy");
  ASSERT_TRUE(blocker.ReadLine().ok());

  Result<Stats> stats = control.RequestStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(std::stoull(stats.value().at("busy_rejections")), 1u);
  server.Stop();
}

TEST(Server, MemoHitsAndEvictionUnderSmallBudget) {
  RrrServer::Options options;
  options.workers = 2;
  // Small enough that the big dataset's artifacts overflow it, large
  // enough that the small dataset's do not.
  options.artifact_budget_bytes = 200 * 1024;
  RrrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client;
  Connect(server, &client);
  ASSERT_TRUE(
      client.Request("REGISTER name=small gen=uniform n=100 d=2 seed=9")
          .ok());
  ASSERT_TRUE(
      client.Request("REGISTER name=big gen=uniform n=2000 d=4 seed=9")
          .ok());
  AwaitReady(&client, "small");
  AwaitReady(&client, "big");

  // Same query twice while under budget: the second must hit the memo.
  Result<Reply> first = client.Request("SOLVE name=small k=3");
  ASSERT_TRUE(first.ok() && first.value().ok) << first.value().msg;
  const std::string ids_before = *first.value().Find("ids");
  Result<Reply> second = client.Request("SOLVE name=small k=3");
  ASSERT_TRUE(second.ok() && second.value().ok);
  EXPECT_EQ(*second.value().Find("cached"), "1");
  EXPECT_EQ(*second.value().Find("ids"), ids_before);

  // The big dataset blows the budget; LRU eviction fires.
  Result<Reply> big = client.Request("SOLVE name=big k=3");
  ASSERT_TRUE(big.ok() && big.value().ok) << big.value().msg;
  Result<Stats> stats = client.RequestStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(std::stoull(stats.value().at("memo_hits")), 1u);
  EXPECT_GE(std::stoull(stats.value().at("evictions")), 1u);
  EXPECT_GT(std::stoull(stats.value().at("evicted_bytes")), 0u);

  // Evicted artifacts rebuild bit-identically on the next touch.
  Result<Reply> again = client.Request("SOLVE name=small k=3");
  ASSERT_TRUE(again.ok() && again.value().ok);
  EXPECT_EQ(*again.value().Find("ids"), ids_before);
  server.Stop();
}

TEST(Server, AppendKeepsInFlightQueryPinnedToItsVersion) {
  RrrServer::Options options;
  options.workers = 1;  // force the SOLVE to queue behind a SLEEP
  options.queue_depth = 4;
  RrrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient blocker, querier, control;
  Connect(server, &blocker);
  Connect(server, &querier);
  Connect(server, &control);
  ASSERT_TRUE(
      control
          .Request(
              "REGISTER name=stream gen=uniform n=120 d=2 seed=13 dynamic=1")
          .ok());
  AwaitReady(&control, "stream");
  Result<Reply> status = control.Request("STATUS name=stream");
  ASSERT_TRUE(status.ok() && status.value().ok);
  const std::string v0 = *status.value().Find("version");

  // Worker busy; the SOLVE is admitted (snapshot pinned NOW) and queued.
  ASSERT_TRUE(blocker.SendLine("SLEEP ms=400").ok());
  AwaitStat(&control, "active_queries", [](size_t v) { return v >= 1; });
  ASSERT_TRUE(querier.SendLine("SOLVE name=stream k=3").ok());
  AwaitStat(&control, "queue_depth", [](size_t v) { return v >= 1; });

  // Publish new rows while the query waits.
  Result<Reply> append =
      control.Request("APPEND name=stream rows=0.9,0.1;0.1,0.9");
  ASSERT_TRUE(append.ok() && append.value().ok) << append.value().msg;
  const std::string v1 = *append.value().Find("version");
  EXPECT_NE(v0, v1);

  // The queued query still answers against its admission-time version,
  // bit-identical to a direct solve over the same 120 rows.
  Result<std::string> raw = querier.ReadLine();
  ASSERT_TRUE(raw.ok());
  Result<Reply> pinned = ParseReply(raw.value());
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned.value().ok) << pinned.value().msg;
  EXPECT_EQ(*pinned.value().Find("version"), v0);
  EXPECT_EQ(*pinned.value().Find("ids"), DirectSolveIds(120, 2, 13, 3));
  ASSERT_TRUE(blocker.ReadLine().ok());

  // A fresh query sees the appended version.
  Result<Reply> fresh = control.Request("SOLVE name=stream k=3");
  ASSERT_TRUE(fresh.ok() && fresh.value().ok);
  EXPECT_EQ(*fresh.value().Find("version"), v1);
  server.Stop();
}

TEST(Server, ClientDisconnectCancelsInFlightQuery) {
  RrrServer::Options options;
  options.workers = 1;
  RrrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient doomed, control;
  Connect(server, &doomed);
  Connect(server, &control);
  ASSERT_TRUE(doomed.SendLine("SLEEP ms=60000").ok());
  AwaitStat(&control, "active_queries", [](size_t v) { return v >= 1; });
  doomed.Close();

  // The connection thread notices the dead socket, cancels the query's
  // ExecContext, and the worker bails out at its next preemption check.
  AwaitStat(&control, "disconnect_cancels",
            [](size_t v) { return v >= 1; });
  AwaitStat(&control, "cancelled", [](size_t v) { return v >= 1; });
  AwaitStat(&control, "active_queries", [](size_t v) { return v == 0; });
  server.Stop();
}

TEST(Server, MalformedAndUnknownInputKeepConnectionUsable) {
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  Connect(server, &client);

  Result<Reply> bad = client.Request("FROBNICATE x=1");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().ok);
  EXPECT_EQ(bad.value().code, "invalid_argument");

  Result<Reply> solve_missing = client.Request("SOLVE name=nope k=3");
  ASSERT_TRUE(solve_missing.ok());
  EXPECT_FALSE(solve_missing.value().ok);
  EXPECT_EQ(solve_missing.value().code, "not_found");

  Result<Reply> ping = client.Request("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);

  Result<Reply> quit = client.Request("QUIT");
  ASSERT_TRUE(quit.ok());
  EXPECT_TRUE(quit.value().ok);
  server.Stop();
}

TEST(Server, StopWithConnectedClientsShutsDownCleanly) {
  auto server = std::make_unique<RrrServer>(RrrServer::Options{});
  ASSERT_TRUE(server->Start().ok());
  LineClient idle, mid_query;
  Connect(*server, &idle);
  Connect(*server, &mid_query);
  ASSERT_TRUE(mid_query.SendLine("SLEEP ms=30000").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Stop();
  server.reset();  // destructor re-runs Stop harmlessly
}

TEST(Server, FailpointVerbArmsListsAndClears) {
  FailpointGuard guard;
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  Connect(server, &client);
  ASSERT_TRUE(client.Request("REGISTER name=d gen=uniform n=60 d=2").ok());
  AwaitReady(&client, "d");

  // Armed over the wire: the next admission attempt dies as the typed
  // busy rejection, then the site self-disarms (once).
  Result<Reply> armed = client.Request(
      "FAILPOINT site=service.admission.submit "
      "spec=once@resource_exhausted");
  ASSERT_TRUE(armed.ok());
  ASSERT_TRUE(armed.value().ok) << armed.value().code;
  Result<Reply> rejected = client.Request("SOLVE name=d k=2");
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().ok);
  EXPECT_EQ(rejected.value().code, "busy");
  Result<Reply> healed = client.Request("SOLVE name=d k=2");
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().ok) << healed.value().code;

  // list=1 reports the drained site as policy:evaluations:injections.
  // evaluations stays 1: once the site self-disarmed, the healed SOLVE
  // took the fast path and never consulted the registry again.
  Result<Reply> listed = client.Request("FAILPOINT list=1");
  ASSERT_TRUE(listed.ok());
  ASSERT_TRUE(listed.value().ok);
  const std::string* report =
      listed.value().Find("service.admission.submit");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(*report, "off:1:1");

  Result<Reply> cleared = client.Request("FAILPOINT clear=1");
  ASSERT_TRUE(cleared.ok());
  EXPECT_TRUE(cleared.value().ok);
  Result<Reply> empty = client.Request("FAILPOINT list=1");
  ASSERT_TRUE(empty.ok());
  const std::string* count = empty.value().Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(*count, "0");

  // Malformed specs are rejected without arming anything.
  Result<Reply> bad = client.Request("FAILPOINT site=x spec=every-0");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().ok);
  EXPECT_EQ(bad.value().code, "invalid_argument");
  server.Stop();
}

TEST(Server, ArtifactBuildFaultDegradesBitIdentically) {
  FailpointGuard guard;
  // Oracle first — the failpoint registry is process-global and the
  // oracle must be the fault-free answer.
  const std::string oracle = DirectSolveIds(120, 3, 7, 3);

  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  Connect(server, &client);
  ASSERT_TRUE(
      client.Request("REGISTER name=d gen=uniform n=120 d=3 seed=7").ok());
  AwaitReady(&client, "d");

  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("core.artifact.candidate_index", "once")
                  .ok());
  Result<Reply> degraded = client.Request("SOLVE name=d k=3");
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded.value().ok) << degraded.value().code;
  const std::string* ids = degraded.value().Find("ids");
  ASSERT_NE(ids, nullptr);
  EXPECT_EQ(*ids, oracle);  // legacy path, bit-identical representative
  const std::string* flag = degraded.value().Find("degraded");
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(*flag, "1");

  Result<Stats> stats = client.RequestStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()["degraded_queries"], "1");
  EXPECT_EQ(stats.value()["errors"], "0");
  server.Stop();
}

TEST(Server, SocketFaultsDropOneConnectionNotTheServer) {
  FailpointGuard guard;
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());

  // An injected reply-write fault reads as the peer breaking the
  // connection: that client's reply is lost, the server keeps serving.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("service.socket.write", "once")
                  .ok());
  LineClient victim;
  Connect(server, &victim);
  Result<Reply> lost = victim.Request("PING");
  EXPECT_FALSE(lost.ok());  // transport-level failure, not a protocol ERR

  LineClient survivor;
  Connect(server, &survivor);
  Result<Reply> ping = survivor.Request("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);

  // Same for an injected request-read fault.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("service.socket.read", "once")
                  .ok());
  LineClient dropped;
  Connect(server, &dropped);
  EXPECT_FALSE(dropped.Request("PING").ok());
  EXPECT_TRUE(survivor.Request("PING").ok());
  server.Stop();
}

TEST(Server, RetryPolicyRecoversBusyAndAcceptFaultsButNeverSemanticErrors) {
  FailpointGuard guard;
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  Connect(server, &client);
  ASSERT_TRUE(client.Request("REGISTER name=d gen=uniform n=60 d=2").ok());
  AwaitReady(&client, "d");

  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 4;

  // busy is typed-retryable: one injected rejection, then success.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("service.admission.submit", "once@resource_exhausted")
                  .ok());
  size_t retries = 0;
  Result<Reply> solved =
      client.RequestWithRetry("SOLVE name=d k=2", policy, &retries);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved.value().ok) << solved.value().code;
  EXPECT_EQ(retries, 1u);

  // An accept fault kills the fresh connection; the retry reconnects.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("service.socket.accept", "once")
                  .ok());
  LineClient flaky;
  Connect(server, &flaky);
  retries = 0;
  Result<Reply> pinged = flaky.RequestWithRetry("PING", policy, &retries);
  ASSERT_TRUE(pinged.ok());
  EXPECT_TRUE(pinged.value().ok);
  EXPECT_GE(retries, 1u);

  // Semantic rejections must NOT burn retry budget: k=0 is
  // invalid_argument forever.
  retries = 0;
  Result<Reply> invalid =
      client.RequestWithRetry("SOLVE name=d k=0", policy, &retries);
  ASSERT_TRUE(invalid.ok());
  EXPECT_FALSE(invalid.value().ok);
  EXPECT_EQ(invalid.value().code, "invalid_argument");
  EXPECT_EQ(retries, 0u);
  server.Stop();
}

TEST(Server, AbruptDisconnectsWithDefaultSigpipeDispositionSurvive) {
  // MSG_NOSIGNAL on every send is what keeps a dead peer from raising
  // SIGPIPE; run with the default (lethal) disposition to prove it.
  using SignalHandler = void (*)(int);
  SignalHandler previous = std::signal(SIGPIPE, SIG_DFL);
  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 20; ++i) {
    LineClient hit_and_run;
    Connect(server, &hit_and_run);
    ASSERT_TRUE(hit_and_run.SendLine("PING").ok());
    hit_and_run.Close();  // reply often races the close -> send to dead fd
  }
  LineClient prober;
  Connect(server, &prober);
  Result<Reply> ping = prober.Request("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);
  server.Stop();
  std::signal(SIGPIPE, previous);
}

TEST(Server, TrafficSurvivesSignalStorm) {
  // EINTR regression: pepper the process with a no-signal-restart handler
  // while traffic runs; every blocked accept/recv/send must retry instead
  // of failing the connection.
  struct sigaction action{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction previous{};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  RrrServer server({});
  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> storming{true};
  std::thread storm([&storming] {
    while (storming.load()) {
      // kill(), not raise(): raise targets the storm thread itself, kill
      // lets the kernel pick any thread — including ones blocked in
      // accept/recv, which is the point.
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  LineClient client;
  Connect(server, &client);
  for (int i = 0; i < 50; ++i) {
    Result<Reply> ping = client.Request("PING");
    ASSERT_TRUE(ping.ok()) << "iteration " << i;
    EXPECT_TRUE(ping.value().ok);
  }
  storming.store(false);
  storm.join();
  server.Stop();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
}

}  // namespace
}  // namespace service
}  // namespace rrr
