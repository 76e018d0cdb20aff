#ifndef RRR_SERVICE_PROTOCOL_H_
#define RRR_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rrr {
namespace service {

/// \brief The wire grammar of rrr_serverd: one request per line, one
/// response per line (STATS excepted), over a plain TCP stream.
///
///   request   = verb *( SP key "=" value ) LF
///   verb      = 1*ALPHA                ; case-insensitive, e.g. SOLVE
///   key       = 1*( ALPHA / "_" )
///   value     = 1*VCHAR                ; no spaces; lists comma-separated
///   response  = "OK" *( SP key "=" value ) LF
///             / "ERR" SP "code=" code SP "msg=" text LF   ; text may have SP
///   stats     = *( key SP value LF ) "END" LF             ; STATS only
///
/// `code` is the snake_case StatusCode name ("not_found",
/// "deadline_exceeded", ...), except admission-control rejections, which
/// use the dedicated "busy" code so load generators can tell overload
/// apart from a solver's own resource exhaustion.

/// A parsed request line: canonical upper-case verb plus key=value args in
/// wire order (later duplicates win in Find, matching a "last flag wins"
/// CLI convention).
struct Command {
  std::string verb;
  std::vector<std::pair<std::string, std::string>> args;

  /// The value for `key`, or null when absent.
  const std::string* Find(const std::string& key) const;

  /// Required string argument; InvalidArgument when missing.
  Result<std::string> GetString(const std::string& key) const;

  /// Optional argument with a default.
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;

  /// Required / optional non-negative integer argument.
  Result<uint64_t> GetUint(const std::string& key) const;
  Result<uint64_t> GetUintOr(const std::string& key, uint64_t fallback) const;
};

/// Parses one request line (no trailing newline). Empty lines and
/// malformed key=value pairs are InvalidArgument.
Result<Command> ParseCommand(const std::string& line);

/// Formats an OK response line (no trailing newline).
std::string FormatOk(
    const std::vector<std::pair<std::string, std::string>>& fields);

/// Formats an ERR response line for a non-ok status (no trailing newline).
/// `busy` statuses are those the caller tags via FormatBusy instead.
std::string FormatErr(const Status& status);

/// Formats the typed admission-control rejection: ERR code=busy.
std::string FormatBusy(const std::string& detail);

/// snake_case wire name of a status code ("deadline_exceeded", ...).
std::string_view WireCode(StatusCode code);

/// Comma-joined decimal ids ("" for an empty list).
std::string JoinIds(const std::vector<int32_t>& ids);

/// Inverse of JoinIds; InvalidArgument on any non-integer element or one
/// outside the int32 range.
Result<std::vector<int32_t>> ParseIdList(const std::string& text);

/// Comma-separated doubles ("1.5,2,3e-1"); InvalidArgument on junk.
Result<std::vector<double>> ParseDoubleList(const std::string& text);

}  // namespace service
}  // namespace rrr

#endif  // RRR_SERVICE_PROTOCOL_H_
