// Pins every rrr_lint rule to its fixture: each violating snippet under
// tests/tools/fixtures/ must trip exactly its own rule (and the clean
// counterpart none), suppressions must be honored and counted, and the
// real tree must scan clean. The lint binary and fixture root arrive via
// compile definitions (RRR_LINT_BINARY / RRR_LINT_FIXTURES / RRR_LINT_REPO)
// so the test works from any build directory.

#include <stdlib.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

/// Runs the lint binary with `args`, capturing stdout+stderr.
LintRun RunLint(const std::string& args) {
  const std::string cmd =
      std::string(RRR_LINT_BINARY) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t got;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Lints one fixture file (path relative to the fixture root).
LintRun LintFixture(const std::string& rel_path) {
  return RunLint("--root=" + std::string(RRR_LINT_FIXTURES) + " " +
                 rel_path);
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Asserts the run tripped `expected_rule` (>= 1 finding) and NO other
/// rule: every "[rule-id]" tag in violation lines must be the expected one.
void ExpectOnlyRule(const LintRun& run, const std::string& expected_rule,
                    size_t expected_count = 1) {
  EXPECT_EQ(run.exit_code, 1) << run.output;
  std::istringstream lines(run.output);
  std::string line;
  size_t findings = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("note:", 0) == 0) continue;     // suppression report
    if (line.rfind("rrr_lint:", 0) == 0) continue;  // summary
    const size_t open = line.find('[');
    const size_t close = line.find(']');
    ASSERT_NE(open, std::string::npos) << line;
    ASSERT_NE(close, std::string::npos) << line;
    EXPECT_EQ(line.substr(open + 1, close - open - 1), expected_rule)
        << run.output;
    ++findings;
  }
  EXPECT_EQ(findings, expected_count) << run.output;
}

void ExpectClean(const LintRun& run) {
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos)
      << run.output;
}

TEST(RrrLintFixtures, ScoringLoopTripsOnHandRolledFold) {
  ExpectOnlyRule(LintFixture("src/core/scoring_loop_bad.cc"),
                 "scoring-loop");
}

TEST(RrrLintFixtures, ScoringLoopCleanCounterpart) {
  ExpectClean(LintFixture("src/core/scoring_loop_clean.cc"));
}

TEST(RrrLintFixtures, ScoringLoopTripsOnHandRolledBlockBound) {
  ExpectOnlyRule(LintFixture("src/topk/block_bound_fold_bad.cc"),
                 "scoring-loop");
}

TEST(RrrLintFixtures, ScoringLoopIgnoresSkipAwareKernelConsumers) {
  ExpectClean(LintFixture("src/topk/block_skip_clean.cc"));
}

TEST(RrrLintFixtures, FpContractTripsOnStdFma) {
  ExpectOnlyRule(LintFixture("src/topk/fp_contract_bad.cc"), "fp-contract");
}

TEST(RrrLintFixtures, FpContractTripsOnPragma) {
  ExpectOnlyRule(LintFixture("src/topk/fp_contract_pragma_bad.cc"),
                 "fp-contract");
}

TEST(RrrLintFixtures, FpContractTripsOnBuildFlagButNotInComments) {
  // The fixture has the same flag twice: once commented (stripped before
  // matching) and once live — exactly one finding proves both halves.
  ExpectOnlyRule(LintFixture("CMakeLists_contract_bad.cmake"),
                 "fp-contract");
}

TEST(RrrLintFixtures, PreemptionGateTripsOnLongUngatedLoop) {
  ExpectOnlyRule(LintFixture("src/core/gate_missing_bad.cc"),
                 "missing-preemption-gate");
}

TEST(RrrLintFixtures, PreemptionGateCleanWhenGatePumped) {
  ExpectClean(LintFixture("src/core/gate_present_clean.cc"));
}

TEST(RrrLintFixtures, PreemptionGateTripsOnServiceAcceptLoop) {
  // src/service/ loops are covered too: a long-lived accept loop with no
  // shutdown signal would make RrrServer::Stop hang forever.
  ExpectOnlyRule(LintFixture("src/service/accept_loop_bad.cc"),
                 "missing-preemption-gate");
}

TEST(RrrLintFixtures, PreemptionGateCleanWhenServiceLoopChecksShutdown) {
  // A shutdown-flag check counts as a gate for service loops (they exit
  // via Stop(), not via a per-query ExecContext).
  ExpectClean(LintFixture("src/service/accept_loop_clean.cc"));
}

TEST(RrrLintFixtures, UnguardedSyncTripsOnAllThreeShapes) {
  // Raw std::mutex member, undocumented std::atomic member, and a Mutex
  // that guards nothing: three findings, all unguarded-sync.
  ExpectOnlyRule(LintFixture("src/common/unguarded_sync_bad.h"),
                 "unguarded-sync", 3);
}

TEST(RrrLintFixtures, UnguardedSyncCleanWhenAnnotated) {
  ExpectClean(LintFixture("src/common/guarded_sync_clean.h"));
}

TEST(RrrLintFixtures, MemoVersionKeyTripsOnVersionlessKey) {
  ExpectOnlyRule(LintFixture("src/core/engine_key_bad.h"),
                 "memo-version-key");
}

TEST(RrrLintFixtures, MemoVersionKeyCleanWithVersionMember) {
  ExpectClean(LintFixture("src/core/engine_key_clean.h"));
}

TEST(RrrLintFixtures, SwallowedStatusTripsOnDiscardedCalls) {
  // Two dropped values (a Status and a Result<int>), plus a void call and
  // the declarations themselves, which must NOT fire.
  ExpectOnlyRule(LintFixture("src/service/swallowed_status_bad.cc"),
                 "swallowed-status", 2);
}

TEST(RrrLintFixtures, SwallowedStatusCleanWhenHandledVoidedOrContinued) {
  ExpectClean(LintFixture("src/service/swallowed_status_clean.cc"));
}

TEST(RrrLintFixtures, UnservedHeaderTripsWhenOnlyTestsAndOwnCcInclude) {
  ExpectOnlyRule(LintFixture("src/eval/unserved_header_bad.h "
                             "src/eval/unserved_header_bad.cc "
                             "tests/eval/unserved_header_bad_test.cc"),
                 "unserved-header");
}

TEST(RrrLintFixtures, UnservedHeaderCleanOnceALibraryCallerIncludes) {
  ExpectClean(LintFixture("src/eval/unserved_header_bad.h "
                          "src/eval/unserved_header_bad.cc "
                          "tests/eval/unserved_header_bad_test.cc "
                          "src/core/unserved_header_clean.cc"));
}

TEST(RrrLintFixtures, DisableMarkerSuppressesAndIsCounted) {
  const LintRun run = LintFixture("src/core/suppressed_ok.cc");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("1 suppression(s)"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("note: src/core/suppressed_ok.cc"),
            std::string::npos)
      << run.output;
}

TEST(RrrLintFixtures, ReasonlessDisableMarkerIsItselfAViolation) {
  ExpectOnlyRule(LintFixture("src/core/suppressed_no_reason_bad.cc"),
                 "bad-suppression");
}

TEST(RrrLintFixtures, JsonReportCarriesCounts) {
  const std::string json_path =
      ::testing::TempDir() + "/rrr_lint_fixture.json";
  const LintRun run = RunLint("--root=" + std::string(RRR_LINT_FIXTURES) +
                              " --json=" + json_path +
                              " src/core/scoring_loop_bad.cc");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << json_path;
  std::stringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  EXPECT_NE(json.find("\"rule\": \"scoring-loop\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"violations\": 1"), std::string::npos) << json;
  EXPECT_EQ(CountOccurrences(json, "\"file\": "), 1u) << json;
  std::remove(json_path.c_str());
}

/// The contract the CI lint job enforces, asserted here too so a plain
/// `ctest` run catches regressions first: the real tree lints clean.
TEST(RrrLintTree, RepositoryScansClean) {
  const LintRun run = RunLint("--root=" + std::string(RRR_LINT_REPO));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

/// A tree scan sees every tracked file, so a header that nothing includes
/// at all is unserved too (an explicit file list does not judge it).
TEST(RrrLintTree, TreeScanFlagsHeaderNothingIncludes) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() / "rrr_lint_tree_XXXXXX").string();
  ASSERT_NE(mkdtemp(&dir[0]), nullptr);
  fs::create_directories(dir + "/src/eval");
  std::ofstream(dir + "/src/eval/orphan.h")
      << "#ifndef ORPHAN_H_\n#define ORPHAN_H_\nint Orphan();\n#endif\n";
  const int git = std::system(
      ("git -C '" + dir + "' init -q && git -C '" + dir + "' add -A")
          .c_str());
  const LintRun tree = RunLint("--root=" + dir);
  const LintRun listed = RunLint("--root=" + dir + " src/eval/orphan.h");
  fs::remove_all(dir);
  ASSERT_EQ(git, 0);
  ExpectOnlyRule(tree, "unserved-header");
  ExpectClean(listed);
}

}  // namespace
