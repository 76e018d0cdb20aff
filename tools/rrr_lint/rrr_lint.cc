// rrr_lint: dependency-light invariant checker for the RRR tree.
//
// Mechanically enforces the repo-specific contracts that clang's
// thread-safety capability analysis cannot see (see
// docs/ARCHITECTURE.md, "Invariants & enforcement"). The scanner is
// token/regex-level over the files `git ls-files` reports (or an explicit
// file list) — deliberately not libclang: the rules are shape checks with
// audited allowlists, and a build-free scanner can run anywhere, first
// thing, in CI.
//
// Rules (stable IDs):
//   scoring-loop            dot-product fold loops (`s += w[j] * row[j]`)
//                           outside the audited scoring allowlist — every
//                           scoring hot path must route through
//                           topk/score_kernel.h or stay in an audited file.
//   fp-contract             reintroduction of FMA contraction: any
//                           -ffp-contract override other than =off, any
//                           FP_CONTRACT pragma enabling it, and std::fma /
//                           __builtin_fma in library code. The scoring
//                           kernel's bit-identity contract depends on
//                           mul+add never fusing.
//   missing-preemption-gate long loops / ParallelFor bodies in src/core
//                           with no reachable ExecContext / PreemptionGate
//                           check — every long computation must be
//                           cancellable.
//   unguarded-sync          raw std sync primitives (std::mutex,
//                           std::lock_guard, ...) instead of the annotated
//                           rrr::Mutex/MutexLock/CondVar; annotated Mutex
//                           members that guard nothing; std::atomic members
//                           without a `rrr-lockfree:` justification.
//   memo-version-key        engine memo key structs missing a
//                           DatasetVersion member — a memo entry computed
//                           against one row-state must never answer for
//                           another.
//   swallowed-status        a statement-initial call to a function whose
//                           declared return type is Status / Result<...>
//                           with the value discarded on the floor — handle
//                           it, propagate it, or cast to (void) with a
//                           comment saying why failure is ignorable.
//   unserved-header         a src/**/*.h that no file outside tests/ includes,
//                           apart from its own .cc — library surface nothing
//                           serves — outside the audited allowlist. With an
//                           explicit file list, only headers some listed
//                           file includes are judged.
//   bad-suppression         a `rrr-lint: disable(...)` marker without a
//                           reason= clause.
//
// Escape hatch: `// rrr-lint: disable(<id>[,<id>...]) reason=<text>` on the
// offending line or the line directly above suppresses those rules there.
// Suppressions are counted and reported (and fail the run when reasonless).
//
// Output: human-readable lines on stdout plus optional machine-readable
// JSON (--json=PATH). Exit 0 when clean, 1 on violations, 2 on usage/IO
// errors.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Violation {
  std::string rule;
  std::string file;
  size_t line = 0;
  std::string message;
};

struct Suppression {
  std::string rule;
  std::string file;
  size_t line = 0;
  std::string reason;
};

/// One scanned file: raw lines, comment/string-stripped code lines (same
/// line numbering), and the per-line suppression markers.
struct FileText {
  std::string path;  // relative to the scan root
  std::vector<std::string> raw;
  std::vector<std::string> code;
  /// line (1-based) -> rules disabled there (marker on that line).
  std::map<size_t, std::set<std::string>> disabled;
  std::map<size_t, std::string> disable_reason;
  /// Lines (1-based) carrying a `rrr-lockfree:` justification.
  std::set<size_t> lockfree;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool IsCppFile(const std::string& path) {
  return EndsWith(path, ".cc") || EndsWith(path, ".h") ||
         EndsWith(path, ".cpp") || EndsWith(path, ".hpp");
}

bool IsCMakeFile(const std::string& path) {
  return EndsWith(path, ".cmake") || Basename(path) == "CMakeLists.txt";
}

/// Blanks comments and string/char literal contents in C++ source while
/// preserving line structure, and harvests the rrr-lint markers from the
/// comment text. Handles //, /* */, "..." with escapes, '...', and basic
/// raw strings R"( ... )".
void StripCpp(FileText* file) {
  enum class State { kCode, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;
  file->code.resize(file->raw.size());
  std::string comment_this_line;
  for (size_t li = 0; li < file->raw.size(); ++li) {
    const std::string& in = file->raw[li];
    std::string out;
    out.reserve(in.size());
    comment_this_line.clear();
    for (size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            comment_this_line += in.substr(i + 2);
            i = in.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlock;
            ++i;
          } else if (c == '"') {
            if (!out.empty() && out.back() == 'R') {
              // Raw string literal: R"delim( ... )delim"
              size_t paren = in.find('(', i);
              raw_delim = ")";
              if (paren != std::string::npos) {
                raw_delim += in.substr(i + 1, paren - i - 1) + "\"";
                i = paren;
              }
              state = State::kRaw;
              out += '"';
            } else {
              state = State::kString;
              out += '"';
            }
          } else if (c == '\'') {
            state = State::kChar;
            out += '\'';
          } else {
            out += c;
          }
          break;
        case State::kBlock:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          } else {
            comment_this_line += c;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            out += '"';
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
            out += '\'';
          }
          break;
        case State::kRaw:
          if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
            i += raw_delim.size() - 1;
            state = State::kCode;
            out += '"';
          }
          break;
      }
    }
    file->code[li] = out;
    if (!comment_this_line.empty()) {
      // Harvest markers from this line's comment text.
      static const std::regex kDisable(
          R"(rrr-lint:\s*disable\(\s*([a-z0-9\-,\s]+?)\s*\)\s*(?:reason=\s*(.*))?$)");
      static const std::regex kLockfree(R"(rrr-lockfree:)");
      std::smatch m;
      if (std::regex_search(comment_this_line, m, kDisable)) {
        std::stringstream rules(m[1].str());
        std::string rule;
        while (std::getline(rules, rule, ',')) {
          rule.erase(0, rule.find_first_not_of(" \t"));
          rule.erase(rule.find_last_not_of(" \t") + 1);
          if (!rule.empty()) file->disabled[li + 1].insert(rule);
        }
        std::string reason = m[2].matched ? m[2].str() : "";
        while (!reason.empty() &&
               (reason.back() == ' ' || reason.back() == '\t')) {
          reason.pop_back();
        }
        file->disable_reason[li + 1] = reason;
      }
      if (std::regex_search(comment_this_line, kLockfree)) {
        file->lockfree.insert(li + 1);
      }
    }
  }
}

/// CMake/other files: '#' comments; no string subtleties worth modeling.
void StripHash(FileText* file) {
  file->code.resize(file->raw.size());
  for (size_t li = 0; li < file->raw.size(); ++li) {
    const std::string& in = file->raw[li];
    const size_t hash = in.find('#');
    file->code[li] = hash == std::string::npos ? in : in.substr(0, hash);
  }
}

class Linter {
 public:
  /// `whole_tree`: the scan covers every tracked file, so a header with no
  /// includers at all is evidence that nothing serves it.
  Linter(std::string root, bool whole_tree)
      : root_(std::move(root)), whole_tree_(whole_tree) {}

  void Scan(const std::string& rel_path);
  void Finish();

  const std::vector<Violation>& violations() const { return violations_; }
  const std::vector<Suppression>& suppressions() const {
    return suppressions_;
  }
  size_t files_scanned() const { return files_scanned_; }

  bool WriteJson(const std::string& path) const;

 private:
  void Report(const FileText& file, const std::string& rule, size_t line,
              const std::string& message);

  void CheckScoringLoop(const FileText& file);
  void CheckFpContract(const FileText& file);
  void CheckPreemptionGates(const FileText& file);
  void CheckUnguardedSync(const FileText& file);
  void CheckMemoVersionKey(const FileText& file);
  void CheckSuppressionReasons(const FileText& file);
  /// Whole-corpus rule (runs in Finish): needs every scanned file's
  /// declarations before any file's call sites can be judged.
  void CheckSwallowedStatus();
  void CheckUnservedHeaders();

  /// Matches braces from the first '{' at or after (start_line, start_col)
  /// in code text; returns the 0-based line of the closing brace, or
  /// raw.size()-1 when unbalanced (EOF).
  static size_t MatchBraces(const FileText& file, size_t start_line);

  std::string root_;
  bool whole_tree_;
  std::vector<FileText> files_;  // retained for whole-corpus rules
  std::vector<Violation> violations_;
  std::vector<Suppression> suppressions_;
  size_t files_scanned_ = 0;
};

void Linter::Report(const FileText& file, const std::string& rule,
                    size_t line, const std::string& message) {
  // A marker on the offending line or the line directly above suppresses.
  for (size_t at : {line, line > 1 ? line - 1 : line}) {
    auto it = file.disabled.find(at);
    if (it != file.disabled.end() && it->second.count(rule) > 0) {
      auto reason = file.disable_reason.find(at);
      suppressions_.push_back(
          {rule, file.path, at,
           reason != file.disable_reason.end() ? reason->second : ""});
      return;
    }
  }
  violations_.push_back({rule, file.path, line, message});
}

// ---------------------------------------------------------------------------
// Rule: scoring-loop
// ---------------------------------------------------------------------------

/// Files allowed to hold a scoring-shaped fold, each with the audit note
/// that justifies it.
const std::pair<const char*, const char*> kScoringAllowlist[] = {
    {"src/topk/score_kernel.cc", "the blocked kernel itself"},
    {"src/topk/scoring.cc",
     "the canonical ascending scalar fold the kernel must match"},
    {"src/geometry/vec.cc",
     "geometry dot products (LP/hyperplane math, not row scoring)"},
    {"src/lp/simplex.cc", "simplex tableau pivots, not row scoring"},
};

void Linter::CheckScoringLoop(const FileText& file) {
  if (!StartsWith(file.path, "src/") || !IsCppFile(file.path)) return;
  for (const auto& allow : kScoringAllowlist) {
    if (file.path == allow.first) return;
  }
  // `lhs += ... a[i] * b ...` / `... a * b[i] ...`: a compound-add of a
  // product with at least one subscripted operand — the shape of a
  // dot-product fold. (Plain `x += 2 * y` or `i += a * stride` with no
  // subscript adjacent to the `*` does not fire.)
  static const std::regex kFold(
      R"(\+=\s*[^;]*(\]\s*\*|\*\s*[A-Za-z_][A-Za-z0-9_.]*(->)?[A-Za-z0-9_]*\s*\[))");
  for (size_t li = 0; li < file.code.size(); ++li) {
    if (std::regex_search(file.code[li], kFold)) {
      Report(file, "scoring-loop", li + 1,
             "scoring-shaped fold (`s += a[j] * b[j]`) outside the audited "
             "allowlist; route through topk/score_kernel.h (ScoreAll / "
             "TopKScan) or add the file to the audited allowlist");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: fp-contract
// ---------------------------------------------------------------------------

void Linter::CheckFpContract(const FileText& file) {
  static const std::regex kContractFlag(R"(ffp-contract\s*=?\s*(?!off)\w+)");
  static const std::regex kContractPragma(
      R"(FP_CONTRACT\s+(ON|DEFAULT)|fp_contract\s*\(\s*on\s*\))",
      std::regex::icase);
  static const std::regex kFma(R"(\b(std::fma|__builtin_fmaf?|fmal?)\s*\()");
  const bool cpp = IsCppFile(file.path);
  const bool in_src = StartsWith(file.path, "src/");
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& code = file.code[li];
    if (std::regex_search(code, kContractFlag)) {
      Report(file, "fp-contract", li + 1,
             "-ffp-contract override other than =off: FMA contraction "
             "breaks the scoring kernel's cross-path bit-identity");
    }
    if (cpp && std::regex_search(code, kContractPragma)) {
      Report(file, "fp-contract", li + 1,
             "FP_CONTRACT pragma re-enables fused multiply-add; the "
             "scoring contract requires mul+add, never FMA");
    }
    if (cpp && in_src && std::regex_search(code, kFma)) {
      Report(file, "fp-contract", li + 1,
             "explicit fused multiply-add in library code; scoring paths "
             "must round twice (mul then add) to stay bit-identical");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: missing-preemption-gate
// ---------------------------------------------------------------------------

/// A loop/body longer than this (in physical lines) must reference a
/// preemption primitive. Long loops below the engine entry points are
/// exactly the ones that make deadlines/cancellation lie.
constexpr size_t kGateLineThreshold = 35;

size_t Linter::MatchBraces(const FileText& file, size_t start_line) {
  int depth = 0;
  bool seen_open = false;
  for (size_t li = start_line; li < file.code.size(); ++li) {
    for (char c : file.code[li]) {
      if (c == '{') {
        ++depth;
        seen_open = true;
      } else if (c == '}') {
        --depth;
        if (seen_open && depth == 0) return li;
      }
    }
    // A loop with no brace on its first two lines is a single-statement
    // loop — never long enough to matter.
    if (!seen_open && li > start_line + 1) return start_line;
  }
  return file.code.empty() ? 0 : file.code.size() - 1;
}

void Linter::CheckPreemptionGates(const FileText& file) {
  // src/service/ is covered too: its accept/serve/worker loops run for the
  // server's whole life and must reference either an ExecContext-style gate
  // or a shutdown flag, or Stop() hangs forever.
  if ((!StartsWith(file.path, "src/core/") &&
       !StartsWith(file.path, "src/service/")) ||
      !EndsWith(file.path, ".cc")) {
    return;
  }
  static const std::regex kLoopHeader(R"(^\s*(for|while)\s*\()");
  static const std::regex kParallelFor(R"(\bParallelFor(Chunked)?\s*\()");
  static const std::regex kGateRef(
      R"(\b(CheckPreempted|PreemptionGate|ExecContext|gate|ctx|preempted|cancelled|shutdown_?|stopping_?|stop_requested|quit|done)\b)");
  for (size_t li = 0; li < file.code.size(); ++li) {
    const bool is_loop = std::regex_search(file.code[li], kLoopHeader);
    const bool is_pfor = std::regex_search(file.code[li], kParallelFor);
    if (!is_loop && !is_pfor) continue;
    const size_t end = MatchBraces(file, li);
    if (end <= li || end - li < kGateLineThreshold) continue;
    bool gated = false;
    for (size_t b = li; b <= end && !gated; ++b) {
      gated = std::regex_search(file.code[b], kGateRef);
    }
    if (!gated) {
      Report(file, "missing-preemption-gate", li + 1,
             (is_pfor ? std::string("ParallelFor body")
                      : std::string("loop")) +
                 " spanning " + std::to_string(end - li + 1) +
                 " lines with no ExecContext/PreemptionGate reference; "
                 "long computations must be cancellable");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unguarded-sync
// ---------------------------------------------------------------------------

void Linter::CheckUnguardedSync(const FileText& file) {
  if (!StartsWith(file.path, "src/") || !IsCppFile(file.path)) return;
  const bool is_wrapper = file.path == "src/common/mutex.h";
  static const std::regex kStdSync(
      R"(\bstd::(mutex|shared_mutex|timed_mutex|recursive_mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  static const std::regex kMutexMember(
      R"(^\s*(mutable\s+)?(rrr::)?Mutex\s+([A-Za-z_]\w*)\s*(RRR_ACQUIRED_(BEFORE|AFTER)\([^;]*\)\s*)?;)");
  static const std::regex kAtomicDecl(R"(\bstd::atomic<)");
  const bool is_header = EndsWith(file.path, ".h") ||
                         EndsWith(file.path, ".hpp");
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& code = file.code[li];
    // Preprocessor lines (#include <mutex> for std::once_flag etc.) pass.
    const size_t first = code.find_first_not_of(" \t");
    if (first != std::string::npos && code[first] == '#') continue;
    if (!is_wrapper && std::regex_search(code, kStdSync)) {
      Report(file, "unguarded-sync", li + 1,
             "raw std synchronization primitive; use the annotated "
             "rrr::Mutex / rrr::MutexLock / rrr::CondVar (common/mutex.h) "
             "so clang's capability analysis can see the locking");
    }
    if (!is_header) continue;
    std::smatch m;
    if (std::regex_search(code, m, kMutexMember)) {
      const std::string name = m[3].str();
      bool guards_something = false;
      for (const std::string& other : file.code) {
        if (other.find("RRR_GUARDED_BY(" + name + ")") != std::string::npos ||
            other.find("RRR_PT_GUARDED_BY(" + name + ")") !=
                std::string::npos ||
            other.find("RRR_REQUIRES(" + name + ")") != std::string::npos) {
          guards_something = true;
          break;
        }
      }
      if (!guards_something) {
        Report(file, "unguarded-sync", li + 1,
               "Mutex member `" + name +
                   "` guards nothing: annotate the protected members with "
                   "RRR_GUARDED_BY(" + name +
                   ") (or document a serialization-only mutex via the "
                   "disable marker)");
      }
    }
    if (std::regex_search(code, kAtomicDecl)) {
      // Only declarations (ending in `;`), not parameters or typedefs.
      std::string trimmed = code;
      while (!trimmed.empty() &&
             (trimmed.back() == ' ' || trimmed.back() == '\t')) {
        trimmed.pop_back();
      }
      if (trimmed.empty() || trimmed.back() != ';') continue;
      if (trimmed.find("using") != std::string::npos ||
          trimmed.find("typedef") != std::string::npos) {
        continue;
      }
      bool documented = false;
      for (size_t back = 0; back <= 3 && back <= li; ++back) {
        if (file.lockfree.count(li + 1 - back) > 0) {
          documented = true;
          break;
        }
      }
      if (!documented) {
        Report(file, "unguarded-sync", li + 1,
               "std::atomic member without a `rrr-lockfree:` justification "
               "comment; document the lock-free protocol (who writes, who "
               "reads, which ordering) or guard it with a Mutex");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: memo-version-key
// ---------------------------------------------------------------------------

void Linter::CheckMemoVersionKey(const FileText& file) {
  if (file.path.find("engine") == std::string::npos || !IsCppFile(file.path)) {
    return;
  }
  static const std::regex kKeyStruct(R"(\bstruct\s+(\w*Key)\s*\{)");
  for (size_t li = 0; li < file.code.size(); ++li) {
    std::smatch m;
    if (!std::regex_search(file.code[li], m, kKeyStruct)) continue;
    const size_t end = MatchBraces(file, li);
    bool has_version = false;
    for (size_t b = li; b <= end && !has_version; ++b) {
      has_version =
          file.code[b].find("DatasetVersion") != std::string::npos;
    }
    if (!has_version) {
      Report(file, "memo-version-key", li + 1,
             "memo key struct `" + m[1].str() +
                 "` has no DatasetVersion member: an engine memo entry "
                 "computed against one row-state must never answer for "
                 "another (see RrrEngine::ResultKey)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: swallowed-status
// ---------------------------------------------------------------------------

/// Phase 1: function names split by declared return type — Status /
/// Result<...> into `fallible`, anything else into `infallible`. A name
/// in both sets is ambiguous at token level (e.g. a bool Insert here, a
/// Result<...> Insert there) and must not be flagged. Repo style makes
/// functions PascalCase, so lowercase identifiers (variables under
/// construction, `Status st(...)`) are never harvested.
void HarvestFunctionNames(const FileText& file, std::set<std::string>* fallible,
                          std::set<std::string>* infallible) {
  if (!IsCppFile(file.path)) return;
  static const std::regex kHead(
      R"(^\s*(?:virtual\s+|static\s+|inline\s+|friend\s+|explicit\s+|constexpr\s+|\[\[nodiscard\]\]\s+)*([A-Za-z_][\w:]*)\s*(<?))");
  static const std::regex kName(
      R"(^\s*[&*]*\s*(?:[A-Za-z_]\w*::)*([A-Z]\w*)\s*\()");
  // Statement keywords that can head a line and precede `Name(...)`:
  // treating them as return types would poison the sets.
  static const std::set<std::string> kNotTypes = {
      "return", "else",   "delete", "throw",  "new",       "case",
      "goto",   "using",  "typedef", "struct", "class",    "enum",
      "template", "namespace", "public", "private", "protected", "co_return",
  };
  for (const std::string& code : file.code) {
    std::smatch m;
    if (!std::regex_search(code, m, kHead) || m.position(0) != 0) continue;
    std::string type = m[1].str();
    if (StartsWith(type, "rrr::")) type = type.substr(5);
    if (kNotTypes.count(type) > 0) continue;
    size_t pos = static_cast<size_t>(m.position(0)) + m[0].length();
    if (m[2].str() == "<") {
      // Skip the template argument list (Result<...>, std::vector<...>).
      int depth = 1;
      while (pos < code.size() && depth > 0) {
        if (code[pos] == '<') ++depth;
        if (code[pos] == '>') --depth;
        ++pos;
      }
      if (depth > 0) continue;  // args span lines: skip (rare)
    }
    const std::string rest = code.substr(pos);
    std::smatch n;
    if (!std::regex_search(rest, n, kName) || n.position(0) != 0) continue;
    const bool is_fallible =
        type == "Status" || (type == "Result" && m[2].str() == "<");
    (is_fallible ? fallible : infallible)->insert(n[1].str());
  }
}

void Linter::CheckSwallowedStatus() {
  std::set<std::string> fallible;
  std::set<std::string> infallible;
  for (const FileText& file : files_) {
    HarvestFunctionNames(file, &fallible, &infallible);
  }
  // Names also declared with a non-Status return somewhere are ambiguous
  // at token level: a call site cannot be attributed, so never flagged.
  for (const std::string& name : infallible) fallible.erase(name);
  if (fallible.empty()) return;
  // A statement-initial call through a simple receiver chain:
  // `Foo(...)`, `obj.Foo(...)`, `ptr->Foo(...)`, `Ns::Foo(...)`.
  static const std::regex kCall(
      R"(^((?:[A-Za-z_]\w*(?:\.|->|::))*)([A-Z]\w*)\s*\()");
  for (const FileText& file : files_) {
    if (!StartsWith(file.path, "src/") || !IsCppFile(file.path)) continue;
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& code = file.code[li];
      const size_t first = code.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      const std::string trimmed = code.substr(first);
      std::smatch m;
      if (!std::regex_search(trimmed, m, kCall) || m.position(0) != 0) {
        continue;
      }
      if (fallible.count(m[2].str()) == 0) continue;
      // Statement-initial only: the previous non-blank code line must have
      // closed a statement/block, otherwise this line continues an
      // expression whose value IS consumed above (`Status s =\n  Foo();`).
      bool statement_start = true;
      for (size_t back = li; back > 0; --back) {
        const std::string& prev = file.code[back - 1];
        const size_t last = prev.find_last_not_of(" \t");
        if (last == std::string::npos) continue;  // blank line: keep looking
        const char c = prev[last];
        statement_start =
            c == ';' || c == '{' || c == '}' || c == ')' || c == ':';
        break;
      }
      if (!statement_start) continue;
      // The value must actually be dropped: the call's parentheses balance
      // straight into `;` (chained `.ok()` etc. means it was examined).
      int depth = 0;
      bool discarded = false;
      bool decided = false;
      for (size_t lj = li; lj < file.code.size() && lj < li + 20 && !decided;
           ++lj) {
        const std::string& s = file.code[lj];
        for (size_t ci = lj == li ? first : 0; ci < s.size(); ++ci) {
          if (s[ci] == '(') {
            ++depth;
          } else if (s[ci] == ')') {
            if (--depth == 0) {
              const size_t after = s.find_first_not_of(" \t", ci + 1);
              // Closing paren at end-of-line: the `;` (or a chain) sits on
              // the next line; one more sweep settles it.
              if (after == std::string::npos) {
                for (size_t lk = lj + 1;
                     lk < file.code.size() && lk < lj + 3; ++lk) {
                  const size_t f2 = file.code[lk].find_first_not_of(" \t");
                  if (f2 == std::string::npos) continue;
                  discarded = file.code[lk][f2] == ';';
                  break;
                }
              } else {
                discarded = s[after] == ';';
              }
              decided = true;
              break;
            }
          }
        }
      }
      if (discarded) {
        Report(file, "swallowed-status", li + 1,
               "call to `" + m[2].str() +
                   "` discards its Status/Result; handle the failure, "
                   "propagate it, or cast to (void) with a comment saying "
                   "why it is ignorable");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unserved-header
// ---------------------------------------------------------------------------

/// Library headers only tests may include, each with the audit note that
/// justifies keeping it.
const std::pair<const char*, const char*> kUnservedAllowlist[] = {
    {"src/eval/rank_regret.h",
     "the exact oracle the Theorem 6 tests check the solvers against"},
};

void Linter::CheckUnservedHeaders() {
  // Header path (relative to the scan root) -> files that include it.
  // Library includes are written relative to src/.
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  std::map<std::string, std::vector<std::string>> includers;
  for (const FileText& file : files_) {
    if (!IsCppFile(file.path)) continue;
    for (size_t li = 0; li < file.code.size(); ++li) {
      // The stripped line keeps the directive only when it is live code.
      const size_t first = file.code[li].find_first_not_of(" \t");
      if (first == std::string::npos || file.code[li][first] != '#') continue;
      std::smatch m;
      if (std::regex_search(file.raw[li], m, kInclude)) {
        includers["src/" + m[1].str()].push_back(file.path);
      }
    }
  }
  for (const FileText& file : files_) {
    if (!StartsWith(file.path, "src/") || !EndsWith(file.path, ".h")) continue;
    bool allowed = false;
    for (const auto& allow : kUnservedAllowlist) {
      allowed = allowed || file.path == allow.first;
    }
    // An explicit file list holds no evidence about a header's missing
    // includers, so there a header nothing includes is not judged.
    const std::vector<std::string>& by = includers[file.path];
    if (allowed || (by.empty() && !whole_tree_)) continue;
    const std::string own_cc =
        file.path.substr(0, file.path.size() - 2) + ".cc";
    bool served = false;
    for (const std::string& includer : by) {
      served = served ||
               (!StartsWith(includer, "tests/") && includer != own_cc);
    }
    if (!served) {
      Report(file, "unserved-header", 1,
             "header is included only by tests and its own .cc: delete it "
             "with its tests, give it a caller, or add it to the audited "
             "allowlist with a reason");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: bad-suppression
// ---------------------------------------------------------------------------

void Linter::CheckSuppressionReasons(const FileText& file) {
  for (const auto& entry : file.disabled) {
    auto reason = file.disable_reason.find(entry.first);
    if (reason == file.disable_reason.end() || reason->second.empty()) {
      violations_.push_back(
          {"bad-suppression", file.path, entry.first,
           "rrr-lint disable marker without reason=; every escape hatch "
           "must say why the contract does not apply"});
    }
  }
}

// ---------------------------------------------------------------------------

void Linter::Scan(const std::string& rel_path) {
  std::ifstream in(root_ + "/" + rel_path);
  if (!in) {
    std::cerr << "rrr_lint: cannot read " << root_ << "/" << rel_path
              << "\n";
    std::exit(2);
  }
  FileText file;
  file.path = rel_path;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    file.raw.push_back(line);
  }
  if (IsCppFile(rel_path)) {
    StripCpp(&file);
  } else {
    StripHash(&file);
  }
  ++files_scanned_;
  CheckScoringLoop(file);
  CheckFpContract(file);
  CheckPreemptionGates(file);
  CheckUnguardedSync(file);
  CheckMemoVersionKey(file);
  CheckSuppressionReasons(file);
  files_.push_back(std::move(file));
}

void Linter::Finish() {
  CheckSwallowedStatus();
  CheckUnservedHeaders();
  std::sort(violations_.begin(), violations_.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool Linter::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"tool\": \"rrr_lint\",\n";
  out << "  \"files_scanned\": " << files_scanned_ << ",\n";
  out << "  \"violations\": [";
  for (size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"rule\": \"" << JsonEscape(v.rule) << "\", \"file\": \""
        << JsonEscape(v.file) << "\", \"line\": " << v.line
        << ", \"message\": \"" << JsonEscape(v.message) << "\"}";
  }
  out << (violations_.empty() ? "],\n" : "\n  ],\n");
  out << "  \"suppressions\": [";
  for (size_t i = 0; i < suppressions_.size(); ++i) {
    const Suppression& s = suppressions_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"rule\": \"" << JsonEscape(s.rule) << "\", \"file\": \""
        << JsonEscape(s.file) << "\", \"line\": " << s.line
        << ", \"reason\": \"" << JsonEscape(s.reason) << "\"}";
  }
  out << (suppressions_.empty() ? "],\n" : "\n  ],\n");
  out << "  \"counts\": {\"violations\": " << violations_.size()
      << ", \"suppressions\": " << suppressions_.size() << "}\n}\n";
  return true;
}

/// `git ls-files` in root, filtered to the file kinds the rules read.
std::vector<std::string> GitTrackedFiles(const std::string& root) {
  std::vector<std::string> files;
  const std::string cmd = "git -C '" + root + "' ls-files -z 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return files;
  std::string name;
  int c;
  while ((c = std::fgetc(pipe)) != EOF) {
    if (c == '\0') {
      // The fixture corpus is intentionally violating; tree scans skip it
      // (the ctest suite scans it explicitly, file by file).
      const bool fixture =
          name.find("tests/tools/fixtures/") != std::string::npos;
      if (!fixture && (IsCppFile(name) || IsCMakeFile(name))) {
        files.push_back(name);
      }
      name.clear();
    } else {
      name.push_back(static_cast<char>(c));
    }
  }
  pclose(pipe);
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  bool quiet = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--root=")) {
      root = arg.substr(7);
    } else if (StartsWith(arg, "--json=")) {
      json_path = arg.substr(7);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: rrr_lint [--root=DIR] [--json=PATH] [--quiet] "
                   "[files...]\n"
                   "Scans `git ls-files` under DIR (default .) when no "
                   "files are given;\nexplicit files are relative to "
                   "DIR.\n";
      return 0;
    } else if (StartsWith(arg, "--")) {
      std::cerr << "rrr_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  const bool whole_tree = files.empty();
  if (whole_tree) {
    files = GitTrackedFiles(root);
    if (files.empty()) {
      std::cerr << "rrr_lint: no files (is " << root
                << " a git tree? pass files explicitly)\n";
      return 2;
    }
  }

  Linter linter(root, whole_tree);
  for (const std::string& f : files) linter.Scan(f);
  linter.Finish();

  if (!quiet) {
    for (const Violation& v : linter.violations()) {
      std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
                << v.message << "\n";
    }
    for (const Suppression& s : linter.suppressions()) {
      std::cout << "note: " << s.file << ":" << s.line << ": [" << s.rule
                << "] suppressed: " << s.reason << "\n";
    }
  }
  std::cout << "rrr_lint: " << linter.files_scanned() << " files, "
            << linter.violations().size() << " violation(s), "
            << linter.suppressions().size() << " suppression(s)\n";
  if (!json_path.empty() && !linter.WriteJson(json_path)) {
    std::cerr << "rrr_lint: cannot write " << json_path << "\n";
    return 2;
  }
  return linter.violations().empty() ? 0 : 1;
}
