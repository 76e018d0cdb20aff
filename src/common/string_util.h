#ifndef RRR_COMMON_STRING_UTIL_H_
#define RRR_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rrr {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Parses a double after Trim: accepts exactly what strtod consumes in full
/// (so also "+1", hex, "inf", "nan", out-of-range values as inf or 0);
/// rejects trailing garbage and empty input.
Result<double> ParseDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace rrr

#endif  // RRR_COMMON_STRING_UTIL_H_
