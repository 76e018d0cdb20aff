#include "service/protocol.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace rrr {
namespace service {

const std::string* Command::Find(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& kv : args) {
    if (kv.first == key) found = &kv.second;
  }
  return found;
}

Result<std::string> Command::GetString(const std::string& key) const {
  const std::string* value = Find(key);
  if (value == nullptr) {
    return Status::InvalidArgument(verb + ": missing argument " + key);
  }
  return *value;
}

std::string Command::GetStringOr(const std::string& key,
                                 const std::string& fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : *value;
}

namespace {

Result<uint64_t> ParseUint(const std::string& verb, const std::string& key,
                           const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument(verb + ": empty integer for " + key);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || text[0] == '-') {
    return Status::InvalidArgument(verb + ": bad integer " + key + "=" + text);
  }
  return static_cast<uint64_t>(parsed);
}

}  // namespace

Result<uint64_t> Command::GetUint(const std::string& key) const {
  std::string text;
  RRR_ASSIGN_OR_RETURN(text, GetString(key));
  return ParseUint(verb, key, text);
}

Result<uint64_t> Command::GetUintOr(const std::string& key,
                                    uint64_t fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  return ParseUint(verb, key, *value);
}

Result<Command> ParseCommand(const std::string& line) {
  Command cmd;
  std::istringstream in(line);
  std::string token;
  if (!(in >> token)) return Status::InvalidArgument("empty command line");
  for (char& c : token) {
    if (!std::isalpha(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("bad verb: " + token);
    }
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  cmd.verb = std::move(token);
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      return Status::InvalidArgument(cmd.verb + ": bad argument " + token +
                                     " (want key=value)");
    }
    cmd.args.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return cmd;
}

std::string FormatOk(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line = "OK";
  for (const auto& kv : fields) {
    line += " ";
    line += kv.first;
    line += "=";
    line += kv.second;
  }
  return line;
}

std::string FormatErr(const Status& status) {
  std::string line = "ERR code=";
  line += WireCode(status.code());
  line += " msg=";
  line += status.message();
  return line;
}

std::string FormatBusy(const std::string& detail) {
  return "ERR code=busy msg=" + detail;
}

std::string_view WireCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "internal";
}

std::string JoinIds(const std::vector<int32_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out;
}

namespace {

/// Splits on commas; empty input yields an empty list.
std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size() && !text.empty()) {
    const size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

Result<std::vector<int32_t>> ParseIdList(const std::string& text) {
  std::vector<int32_t> ids;
  for (const std::string& part : SplitCommas(text)) {
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(part.c_str(), &end, 10);
    if (part.empty() || errno != 0 || end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad id list element: " + part);
    }
    // Row ids are int32: a wider value must not wrap onto some other row.
    if (parsed < std::numeric_limits<int32_t>::min() ||
        parsed > std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument("id list element out of range: " + part);
    }
    ids.push_back(static_cast<int32_t>(parsed));
  }
  return ids;
}

Result<std::vector<double>> ParseDoubleList(const std::string& text) {
  std::vector<double> values;
  for (const std::string& part : SplitCommas(text)) {
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(part.c_str(), &end);
    if (part.empty() || errno != 0 || end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad double list element: " + part);
    }
    values.push_back(parsed);
  }
  return values;
}

}  // namespace service
}  // namespace rrr
