// Chaos suite: seeded randomized fault schedules against a live server
// under mixed SOLVE/DUAL/EVAL/APPEND traffic. The invariants are the
// whole hardening story at once:
//   - the server never hangs or crashes (watchdog + clean Stop());
//   - every SUCCESSFUL reply on the static datasets is bit-identical to
//     the fault-free oracle (degradation may slow a query, never change
//     its answer);
//   - every FAILED reply is a typed protocol error (known code=), never
//     a garbled line or a silent disconnect-without-cleanup;
//   - after the faults clear, the server drains to idle and keeps
//     serving.
// Each schedule draws its fault set (sites x policies) from a seeded rng,
// so a failing seed reproduces exactly; bump kSchedules for soak runs.

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/random.h"
#include "service/client.h"
#include "service/server.h"

namespace rrr {
namespace service {
namespace {

constexpr int kSchedules = 20;  // acceptance floor; raise for soak runs

// Static traffic datasets (the oracle targets) and their query mix.
const char* const kRegisterS2 = "REGISTER name=s2 gen=uniform n=80 d=2 seed=31";
const char* const kRegisterS3 = "REGISTER name=s3 gen=uniform n=90 d=3 seed=47";
const char* const kRegisterDyn =
    "REGISTER name=dyn gen=uniform n=40 d=2 seed=5 dynamic=1";
const size_t kSolveKs[] = {2, 3, 4};
const size_t kDualSizes[] = {3, 5};

/// One schedule entry: a site armed with a policy spec.
struct Fault {
  std::string site;
  std::string spec;
};

/// Draws this schedule's fault set. Socket faults are listed last so the
/// admin client can arm everything over the wire before replies start
/// getting eaten. Policies derive from the schedule seed: replaying a
/// seed replays its faults.
std::vector<Fault> GenerateSchedule(uint64_t seed) {
  Rng rng(seed);
  const char* artifact_sites[] = {
      "core.artifact.candidate_index", "core.artifact.column_blocks",
      "core.artifact.skyline",         "core.artifact.corner_topk",
  };
  std::vector<Fault> faults;
  // 1-2 artifact faults: these must DEGRADE queries, never corrupt them.
  const int artifacts = 1 + static_cast<int>(rng.UniformInt(0, 1));
  for (int i = 0; i < artifacts; ++i) {
    const char* site = artifact_sites[rng.UniformInt(0, 3)];
    std::string spec;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        spec = "once";
        break;
      case 1:
        spec = "every-" + std::to_string(rng.UniformInt(2, 5));
        break;
      default:
        spec = "prob-0." + std::to_string(rng.UniformInt(1, 3)) + "-seed-" +
               std::to_string(seed);
        break;
    }
    faults.push_back({site, spec});
  }
  // Sometimes overload admission (typed busy) or kill a lazy compute.
  if (rng.Bernoulli(0.5)) {
    faults.push_back({"service.admission.submit",
                      "every-" + std::to_string(rng.UniformInt(3, 6)) +
                          "@resource_exhausted"});
  }
  if (rng.Bernoulli(0.3)) {
    faults.push_back({"core.lazycell.compute", "once"});
  }
  // Socket-level carnage last (see above).
  if (rng.Bernoulli(0.5)) {
    faults.push_back({"service.socket.read",
                      "prob-0.1-seed-" + std::to_string(seed + 1)});
  }
  if (rng.Bernoulli(0.5)) {
    faults.push_back({"service.socket.write",
                      "prob-0.1-seed-" + std::to_string(seed + 2)});
  }
  return faults;
}

/// Polls STATUS until `name` is READY (fails the test on FAILED).
void AwaitReady(LineClient* client, const std::string& name) {
  for (int i = 0;; ++i) {
    ASSERT_LT(i, 2000) << name << " never became READY";
    Result<Reply> reply = client->Request("STATUS name=" + name);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const std::string* state = reply.value().Find("state");
    ASSERT_NE(state, nullptr);
    ASSERT_NE(*state, "FAILED");
    if (*state == "READY") return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Fault-free expected reply fields for the static datasets, recorded
/// over the wire so comparisons cover the full formatting path.
struct OracleBook {
  std::map<std::string, std::string> solve;  // "s2:3"  -> ids
  std::map<std::string, std::string> dual;   // "s3:5"  -> "k/ids"
  std::map<std::string, std::string> eval;   // "s2"    -> rank_regret
};

void BuildOracle(OracleBook* book) {
  FailpointRegistry::Instance().DisarmAll();
  RrrServer server(RrrServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Request(kRegisterS2).ok());
  ASSERT_TRUE(client.Request(kRegisterS3).ok());
  AwaitReady(&client, "s2");
  AwaitReady(&client, "s3");
  for (const char* name : {"s2", "s3"}) {
    for (size_t k : kSolveKs) {
      Result<Reply> solved = client.Request(
          std::string("SOLVE name=") + name + " k=" + std::to_string(k));
      ASSERT_TRUE(solved.ok() && solved.value().ok);
      const std::string* ids = solved.value().Find("ids");
      ASSERT_NE(ids, nullptr);
      book->solve[std::string(name) + ":" + std::to_string(k)] = *ids;
    }
    for (size_t max_size : kDualSizes) {
      Result<Reply> dual =
          client.Request(std::string("DUAL name=") + name +
                         " max_size=" + std::to_string(max_size));
      ASSERT_TRUE(dual.ok() && dual.value().ok);
      const std::string* k = dual.value().Find("k");
      const std::string* ids = dual.value().Find("ids");
      ASSERT_NE(k, nullptr);
      ASSERT_NE(ids, nullptr);
      book->dual[std::string(name) + ":" + std::to_string(max_size)] =
          *k + "/" + *ids;
    }
    Result<Reply> eval = client.Request(
        std::string("EVAL name=") + name +
        " ids=" + book->solve[std::string(name) + ":2"] + " k=2");
    ASSERT_TRUE(eval.ok() && eval.value().ok);
    const std::string* regret = eval.value().Find("rank_regret");
    ASSERT_NE(regret, nullptr);
    book->eval[name] = *regret;
  }
  server.Stop();
}

bool IsTypedCode(const std::string& code) {
  static const std::set<std::string> kCodes = {
      "busy",          "io_error",           "internal",
      "invalid_argument", "not_found",       "failed_precondition",
      "out_of_range",  "resource_exhausted", "cancelled",
      "deadline_exceeded", "unavailable",    "already_exists",
      "unimplemented", "aborted",
  };
  return kCodes.count(code) > 0;
}

/// One driver thread's slice of a schedule: mixed traffic with retries,
/// every successful static-dataset reply checked against the oracle,
/// every failure checked for typed-ness. Violations land in `problems`.
void DriveTraffic(uint16_t port, uint64_t seed, const OracleBook& oracle,
                  int ops, Mutex* problems_mu,
                  std::vector<std::string>* problems) {
  auto report = [&](const std::string& what) {
    MutexLock lock(*problems_mu);
    problems->push_back("seed " + std::to_string(seed) + ": " + what);
  };
  Rng rng(seed);
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.jitter_seed = seed;
  LineClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    report("initial connect failed");
    return;
  }
  for (int op = 0; op < ops; ++op) {
    const std::string name = rng.Bernoulli(0.5) ? "s2" : "s3";
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    std::string line;
    std::string expect_key;
    enum Verb { kSolve, kDual, kEval, kAppend, kStats };
    Verb verb;
    if (kind < 4) {
      verb = kSolve;
      const size_t k = kSolveKs[rng.UniformInt(0, 2)];
      line = "SOLVE name=" + name + " k=" + std::to_string(k);
      expect_key = name + ":" + std::to_string(k);
    } else if (kind < 6) {
      verb = kDual;
      const size_t m = kDualSizes[rng.UniformInt(0, 1)];
      line = "DUAL name=" + name + " max_size=" + std::to_string(m);
      expect_key = name + ":" + std::to_string(m);
    } else if (kind < 8) {
      verb = kEval;
      line = "EVAL name=" + name + " ids=" + oracle.solve.at(name + ":2") +
             " k=2";
      expect_key = name;
    } else if (kind < 9) {
      verb = kAppend;
      // The dynamic dataset is traffic ballast, not an oracle target (a
      // lost-reply APPEND is ambiguous by nature), so its replies only
      // need to be well-typed.
      line = "APPEND name=dyn rows=0." + std::to_string(rng.UniformInt(1, 9)) +
             ",0." + std::to_string(rng.UniformInt(1, 9));
    } else {
      verb = kStats;
    }

    if (!client.connected() && !client.Connect("127.0.0.1", port).ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (verb == kStats) {
      // STATS is multi-line; a transport fault mid-body is fine, and
      // RequestStats itself rejects a malformed body.
      if (!client.RequestStats().ok()) client.Close();
      continue;
    }
    Result<Reply> reply =
        verb == kAppend
            ? client.Request(line)  // never retried: not idempotent
            : client.RequestWithRetry(line, policy);
    if (!reply.ok()) {
      // Transport fault (socket failpoints, retry budget spent): allowed;
      // reconnect on the next loop iteration and keep driving.
      client.Close();
      continue;
    }
    if (!reply.value().ok) {
      if (!IsTypedCode(reply.value().code)) {
        report("untyped error code '" + reply.value().code + "' for " + line);
      }
      continue;
    }
    // Successful replies on the static datasets must match the oracle
    // bit-for-bit, degraded or not.
    if (verb == kSolve) {
      const std::string* ids = reply.value().Find("ids");
      if (ids == nullptr || *ids != oracle.solve.at(expect_key)) {
        report("SOLVE mismatch for " + line + ": got " +
               (ids ? *ids : "<none>") + " want " +
               oracle.solve.at(expect_key));
      }
    } else if (verb == kDual) {
      const std::string* k = reply.value().Find("k");
      const std::string* ids = reply.value().Find("ids");
      const std::string got =
          (k ? *k : "<none>") + "/" + (ids ? *ids : "<none>");
      if (got != oracle.dual.at(expect_key)) {
        report("DUAL mismatch for " + line + ": got " + got + " want " +
               oracle.dual.at(expect_key));
      }
    } else if (verb == kEval) {
      const std::string* regret = reply.value().Find("rank_regret");
      if (regret == nullptr || *regret != oracle.eval.at(expect_key)) {
        report("EVAL mismatch for " + line + ": got " +
               (regret ? *regret : "<none>") + " want " +
               oracle.eval.at(expect_key));
      }
    }
  }
}

/// Polls STATS on a fresh client (the fault set is already cleared)
/// until the admission pool reports fully drained.
void AwaitDrained(uint16_t port, uint64_t seed, Mutex* problems_mu,
                  std::vector<std::string>* problems) {
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  for (int i = 0; i < 2000; ++i) {
    Result<std::map<std::string, std::string>> stats = client.RequestStats();
    if (stats.ok() && stats.value().at("queue_depth") == "0" &&
        stats.value().at("active_queries") == "0") {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  MutexLock lock(*problems_mu);
  problems->push_back("seed " + std::to_string(seed) +
                      ": admission pool never drained");
}

TEST(Chaos, SeededFaultSchedulesNeverHangCrashOrCorrupt) {
  // Watchdog: a hang anywhere below must fail the test loudly instead of
  // eating the whole ctest budget. SIGALRM's default action terminates.
  ::alarm(600);

  OracleBook oracle;
  BuildOracle(&oracle);
  ASSERT_FALSE(oracle.solve.empty());
  Mutex problems_mu;
  std::vector<std::string> problems;

  for (int schedule = 1; schedule <= kSchedules; ++schedule) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(schedule) * 17;
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    FailpointRegistry::Instance().DisarmAll();

    RrrServer::Options options;
    options.workers = 3;
    options.queue_depth = 8;
    RrrServer server(options);
    ASSERT_TRUE(server.Start().ok());

    // Register the traffic datasets fault-free, then arm the schedule.
    {
      LineClient admin;
      ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok());
      ASSERT_TRUE(admin.Request(kRegisterS2).ok());
      ASSERT_TRUE(admin.Request(kRegisterS3).ok());
      ASSERT_TRUE(admin.Request(kRegisterDyn).ok());
      AwaitReady(&admin, "s2");
      AwaitReady(&admin, "s3");
      AwaitReady(&admin, "dyn");
      // Armed over the wire (the admin client retries through its own
      // socket faults). One deterministic trap: each re-Arm resets the
      // policy rng, so a prob spec whose FIRST draw injects will eat the
      // arming reply identically on every retry — when the wire path
      // livelocks like that, fall back to the in-process registry (same
      // process, same failpoints).
      RetryPolicy arm_policy;
      arm_policy.max_attempts = 6;
      arm_policy.initial_backoff_ms = 1;
      arm_policy.max_backoff_ms = 4;
      for (const Fault& fault : GenerateSchedule(seed)) {
        Result<Reply> armed = admin.RequestWithRetry(
            "FAILPOINT site=" + fault.site + " spec=" + fault.spec,
            arm_policy);
        if (armed.ok() && armed.value().ok) continue;
        if (!FailpointRegistry::Instance().Arm(fault.site, fault.spec).ok()) {
          MutexLock lock(problems_mu);
          problems.push_back("seed " + std::to_string(seed) + ": arming " +
                             fault.site + " failed");
        }
        if (!admin.connected()) {
          (void)admin.Connect("127.0.0.1", server.port());
        }
      }
    }

    std::vector<std::thread> drivers;
    for (uint64_t t = 0; t < 3; ++t) {
      drivers.emplace_back([&, t] {
        DriveTraffic(server.port(), seed * 10 + t, oracle, 16, &problems_mu,
                     &problems);
      });
    }
    for (std::thread& driver : drivers) driver.join();

    // Clear the faults over the wire, then verify the server drains to
    // idle and still answers — graceful degradation, not slow death.
    {
      LineClient admin;
      RetryPolicy clear_policy;
      clear_policy.max_attempts = 8;
      clear_policy.initial_backoff_ms = 1;
      clear_policy.max_backoff_ms = 4;
      ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok());
      Result<Reply> cleared =
          admin.RequestWithRetry("FAILPOINT clear=1", clear_policy);
      ASSERT_TRUE(cleared.ok() && cleared.value().ok)
          << "FAILPOINT clear failed";
    }
    FailpointRegistry::Instance().DisarmAll();  // belt and braces
    AwaitDrained(server.port(), seed, &problems_mu, &problems);
    {
      LineClient prober;
      ASSERT_TRUE(prober.Connect("127.0.0.1", server.port()).ok());
      Result<Reply> solved = prober.Request("SOLVE name=s2 k=2");
      ASSERT_TRUE(solved.ok());
      ASSERT_TRUE(solved.value().ok) << solved.value().code;
      const std::string* ids = solved.value().Find("ids");
      ASSERT_NE(ids, nullptr);
      EXPECT_EQ(*ids, oracle.solve.at("s2:2"));
    }
    server.Stop();  // full drain: joins every thread or the watchdog fires
  }

  EXPECT_TRUE(problems.empty()) << problems.size() << " violations, first: "
                                << problems.front();
  ::alarm(0);
}

}  // namespace
}  // namespace service
}  // namespace rrr
