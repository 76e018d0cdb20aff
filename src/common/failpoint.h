#ifndef RRR_COMMON_FAILPOINT_H_
#define RRR_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace rrr {

/// \brief Fault-injection registry: named sites threaded through every
/// fallible seam (`RRR_FAILPOINT("data.csv.read")`), armed at runtime with
/// a per-site policy so tests and the chaos harness can provoke error
/// paths deterministically.
///
/// \par Zero cost when disabled
/// An unarmed process pays ONE relaxed atomic load per site evaluation
/// (the global any-armed flag); the registry lock and the per-site policy
/// table are only consulted while at least one site is armed. Arming is a
/// test/chaos-time act — production traffic never takes the slow path.
///
/// \par Policy grammar (spec strings)
///   off                        disarm the site
///   once[@CODE]                inject exactly once, then self-disarm
///   every-N[@CODE]             inject on every Nth evaluation (N >= 1)
///   prob-P[-seed-S][@CODE]     inject with probability P in [0,1],
///                              drawn from a SEEDED rng (default seed 1)
///                              so chaos schedules replay identically
///   delay-MS                   sleep MS milliseconds, then pass
///
/// CODE is a snake_case StatusCode name ("io_error", "internal",
/// "resource_exhausted", ...; default io_error). Injected errors carry the
/// message `failpoint <site>` so they are attributable in logs and replies.
///
/// \par Configuration surfaces
///  - env: `RRR_FAILPOINTS="site=spec;site2=spec"` parsed on first use
///    (rrr_serverd and every test binary honor it);
///  - wire: the `FAILPOINT` admin verb of rrr_serverd
///    (service/protocol.h) arms a live server for the chaos suite;
///  - code: Arm/Disarm/DisarmAll below.
///
/// \par Naming convention
/// `<layer>.<component>.<operation>`, lower-case, dot-separated:
/// "data.csv.read", "core.artifact.candidate_index",
/// "service.registry.prepare", "service.socket.write". List() reports
/// every site name evaluated at least once while armed, so schedules can
/// be written against real names.
class FailpointRegistry {
 public:
  /// Per-site injection policy; parsed from the spec grammar above.
  struct Policy {
    enum class Kind { kOff, kOnce, kEveryN, kProbability, kDelay };
    Kind kind = Kind::kOff;
    StatusCode code = StatusCode::kIoError;
    uint64_t every_n = 1;      // kEveryN period
    double probability = 0.0;  // kProbability
    uint64_t seed = 1;         // kProbability rng seed
    uint64_t delay_ms = 0;     // kDelay
  };

  /// One armed (or previously armed) site's state, for FAILPOINT list /
  /// post-mortems.
  struct SiteReport {
    std::string site;
    std::string policy;      // canonical spec string ("off" once drained)
    uint64_t evaluations = 0;  // times the site ran while armed
    uint64_t injections = 0;   // times it actually injected
  };

  /// The process-wide registry (env-configured on first call).
  static FailpointRegistry& Instance();

  /// Fast-path guard: true iff any site is currently armed. A single
  /// relaxed load — the entire disabled-path cost of a failpoint site.
  static bool AnyArmed() {
    return any_armed_.load(std::memory_order_relaxed);
  }

  /// Slow path behind AnyArmed(): applies `site`'s policy. OK when the
  /// site is unarmed or the policy chooses not to fire this time; the
  /// configured error Status when it does. kDelay sleeps and returns OK.
  Status Evaluate(const char* site);

  /// Arms `site` with a parsed policy spec; `off` disarms. InvalidArgument
  /// on a malformed spec.
  Status Arm(const std::string& site, const std::string& spec);
  Status Arm(const std::string& site, const Policy& policy);

  /// Disarms one site; true iff it was armed.
  bool Disarm(const std::string& site);

  /// Disarms everything and forgets all site state (test isolation).
  void DisarmAll();

  /// Applies `config` = `site=spec[;site=spec...]` (the RRR_FAILPOINTS
  /// grammar; ';' separated, blanks ignored). First error aborts the rest.
  Status ConfigureFromString(const std::string& config);

  /// Every site with recorded state, name-sorted.
  std::vector<SiteReport> List() const;

  /// Parses one policy spec; InvalidArgument with the offending token on
  /// failure.
  static Result<Policy> ParsePolicy(const std::string& spec);

  /// Canonical spec string for a policy (ParsePolicy's inverse).
  static std::string PolicyToString(const Policy& policy);

 private:
  struct Site {
    Policy policy;
    uint64_t evaluations = 0;
    uint64_t injections = 0;
    Rng rng{1};  // kProbability draws; reseeded from the policy on Arm
  };

  FailpointRegistry();

  void RecountArmed() RRR_REQUIRES(mu_);

  // rrr-lockfree: written under mu_ (RecountArmed), read lock-free by
  // every RRR_FAILPOINT fast path; relaxed is enough because arming
  // happens-before the traffic a test injects into.
  static std::atomic<bool> any_armed_;

  mutable Mutex mu_;
  std::unordered_map<std::string, Site> sites_ RRR_GUARDED_BY(mu_);
};

}  // namespace rrr

/// \brief Fault-injection site for functions returning Status or
/// Result<T>: when armed and firing, returns the injected Status out of
/// the enclosing function. Disabled cost: one relaxed atomic load.
#define RRR_FAILPOINT(site)                                              \
  do {                                                                   \
    if (::rrr::FailpointRegistry::AnyArmed()) {                          \
      ::rrr::Status _rrr_fp =                                            \
          ::rrr::FailpointRegistry::Instance().Evaluate(site);           \
      if (!_rrr_fp.ok()) return _rrr_fp;                                 \
    }                                                                    \
  } while (false)

/// \brief Expression form for call sites that fold the Status themselves
/// (socket loops mapping to errno-style returns, constructors).
#define RRR_FAILPOINT_STATUS(site)                                       \
  (::rrr::FailpointRegistry::AnyArmed()                                  \
       ? ::rrr::FailpointRegistry::Instance().Evaluate(site)             \
       : ::rrr::Status::OK())

#endif  // RRR_COMMON_FAILPOINT_H_
