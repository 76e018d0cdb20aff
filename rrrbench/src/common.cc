// Wire-format helpers for requests and replies, and the statistics the
// report uses.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "bench.h"

namespace rrrbench {

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kSolve:
      return "SOLVE";
    case Verb::kEval:
      return "EVAL";
    case Verb::kDual:
      return "DUAL";
    case Verb::kAppend:
      return "APPEND";
    case Verb::kDelete:
      return "DELETE";
  }
  return "?";
}

namespace {

std::string JoinIds(const std::vector<int32_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

/// %.17g: the shortest printf form that round-trips every double, which the
/// bit-exact oracle comparison depends on.
std::string ExactDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Request::Line() const {
  const std::string deadline = " deadline_ms=" + std::to_string(kDeadlineMs);
  switch (verb) {
    case Verb::kSolve:
      return "SOLVE name=" + dataset + " k=" + std::to_string(k) +
             (algo.empty() ? "" : " algo=" + algo) + deadline;
    case Verb::kEval:
      return "EVAL name=" + dataset + " ids=" + JoinIds(ids) +
             " k=" + std::to_string(k) + deadline;
    case Verb::kDual:
      return "DUAL name=" + dataset + " max_size=" + std::to_string(max_size) +
             deadline;
    case Verb::kAppend: {
      std::string text = "APPEND name=" + dataset + " rows=";
      for (size_t r = 0; r < rows.size(); ++r) {
        if (r > 0) text += ';';
        for (size_t j = 0; j < rows[r].size(); ++j) {
          if (j > 0) text += ',';
          text += ExactDouble(rows[r][j]);
        }
      }
      return text;
    }
    case Verb::kDelete:
      return "DELETE name=" + dataset + " id=" + std::to_string(delete_id);
  }
  return "";
}

Reply Reply::Parse(const std::string& line) {
  Reply reply;
  size_t pos = line.find(' ');
  const std::string head = line.substr(0, pos);
  reply.ok = head == "OK";
  while (pos != std::string::npos) {
    const size_t start = pos + 1;
    const size_t eq = line.find('=', start);
    if (eq == std::string::npos) break;
    const std::string key = line.substr(start, eq - start);
    if (key == "msg") {  // ERR text runs to the end of the line
      reply.fields[key] = line.substr(eq + 1);
      break;
    }
    pos = line.find(' ', eq);
    reply.fields[key] = line.substr(
        eq + 1, pos == std::string::npos ? std::string::npos : pos - eq - 1);
  }
  if (!reply.ok) {
    const std::string* code = reply.Find("code");
    reply.error_code = code != nullptr ? *code : "malformed_reply";
  }
  return reply;
}

const std::string* Reply::Find(const std::string& key) const {
  auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

std::vector<int32_t> Reply::Ids() const {
  std::vector<int32_t> ids;
  const std::string* text = Find("ids");
  if (text == nullptr) return ids;
  size_t start = 0;
  while (start < text->size()) {
    size_t comma = text->find(',', start);
    if (comma == std::string::npos) comma = text->size();
    ids.push_back(static_cast<int32_t>(
        std::strtol(text->substr(start, comma - start).c_str(), nullptr, 10)));
    start = comma + 1;
  }
  return ids;
}

std::optional<uint64_t> Reply::VersionOrdinal() const {
  const std::string* text = Find("version");
  if (text == nullptr) return std::nullopt;
  const size_t dot = text->rfind('.');
  if (dot == std::string::npos) return std::nullopt;
  return std::strtoull(text->c_str() + dot + 1, nullptr, 10);
}

uint64_t ServerStats::Get(const std::string& key) const {
  auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

double Span::Fact(const std::string& key, double fallback) const {
  for (const auto& fact : facts) {
    if (fact.first == key) return fact.second;
  }
  return fallback;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

double TailQuantile(size_t n) {
  for (double q : {0.9, 0.75}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.5;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace rrrbench
