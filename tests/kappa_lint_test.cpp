/// \file kappa_lint_test.cpp
/// \brief Self-test for the kappa-lint SPMD invariant checker.
///
/// Drives the checker in-process: unit tests for the lexer, the glob
/// matcher, and the rules.kl parser, plus integration tests that run the
/// production rule table against the seeded-violation fixtures under
/// tools/kappa_lint/fixtures/ — one fixture family per check, with the
/// exact rule names and exit codes pinned. The final test lints the real
/// src/ tree: the production tree must stay clean under its own linter.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "kappa_lint/lint.hpp"

namespace kappa_lint {
namespace {

// --------------------------------------------------------------- lexer ----

TEST(LintLexer, StripsCommentsStringsAndPreprocessor) {
  const std::string source =
      "#include \"parallel/pe_runtime.hpp\"\n"
      "// all_gather in a comment is not a call\n"
      "/* neither is all_gather\n"
      "   in a block comment */\n"
      "const char* s = \"all_gather(\";\n"
      "int x = pe.all_gather(1);\n";
  const SourceFile file = lex_file("parallel/foo.cpp", source);

  ASSERT_EQ(file.includes.size(), 1u);
  EXPECT_EQ(file.includes[0].header, "parallel/pe_runtime.hpp");
  EXPECT_EQ(file.includes[0].line, 1);

  int gather_tokens = 0;
  for (const Token& tok : file.tokens) {
    if (tok.text == "all_gather") {
      ++gather_tokens;
      EXPECT_EQ(tok.line, 6);
    }
  }
  EXPECT_EQ(gather_tokens, 1);
}

TEST(LintLexer, ParsesAllowAnnotations) {
  const std::string source =
      "int a;  // kappa-lint: allow(no-partition-gathers, \"why not\")\n"
      "int b;  // kappa-lint: allow(no-partition-gathers)\n";
  const SourceFile file = lex_file("parallel/foo.cpp", source);
  ASSERT_EQ(file.allows.size(), 2u);
  EXPECT_FALSE(file.allows[0].malformed);
  EXPECT_EQ(file.allows[0].rule, "no-partition-gathers");
  EXPECT_EQ(file.allows[0].reason, "why not");
  EXPECT_EQ(file.allows[0].line, 1);
  EXPECT_TRUE(file.allows[1].malformed);  // reason string is mandatory
}

// ---------------------------------------------------------------- globs ----

TEST(LintGlob, SegmentsAndRecursion) {
  EXPECT_TRUE(glob_match("parallel/dist_*.cpp", "parallel/dist_partition.cpp"));
  EXPECT_FALSE(glob_match("parallel/dist_*.cpp", "parallel/nested/dist_x.cpp"));
  EXPECT_TRUE(glob_match("refinement/**", "refinement/fm.cpp"));
  EXPECT_TRUE(glob_match("refinement/**", "refinement/sub/fm.cpp"));
  EXPECT_FALSE(glob_match("refinement/**", "coarsening/fm.cpp"));
  EXPECT_TRUE(glob_match("**", "a/b/c.hpp"));
}

// ---------------------------------------------------------------- rules ----

TEST(LintRules, RejectsUnknownKindAndDuplicateNames) {
  RuleTable table;
  std::string error;
  EXPECT_FALSE(parse_rules("rule x frobnicate {\n  files = **\n}\n", table,
                           error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos);

  const std::string dup =
      "rule x forbid-symbol {\n  files = **\n  symbols = A\n}\n"
      "rule x forbid-symbol {\n  files = **\n  symbols = B\n}\n";
  error.clear();
  EXPECT_FALSE(parse_rules(dup, table, error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// ------------------------------------------------------------- fixtures ----

std::string tool_dir() { return KAPPA_LINT_TOOL_DIR; }

Report lint_fixture(const std::string& name) {
  Options options;
  options.rules_path = tool_dir() + "/rules.kl";
  options.roots = {tool_dir() + "/fixtures/" + name};
  std::ostringstream diag;
  Report report = run(options, diag);
  SCOPED_TRACE(diag.str());
  return report;
}

std::map<std::string, int> count_by_rule(const Report& report) {
  std::map<std::string, int> counts;
  for (const Finding& finding : report.findings) ++counts[finding.rule];
  return counts;
}

TEST(LintFixtures, CleanTreePasses) {
  const Report report = lint_fixture("clean");
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintFixtures, LayeringViolationsFire) {
  const Report report = lint_fixture("layering");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // dist_partition.cpp: socket + channel + transport_tcp includes.
  EXPECT_EQ(counts.at("no-transport-internals"), 3);
  EXPECT_EQ(counts.at("no-mailbox-above-transport"), 1);
  // fm.cpp: pe_runtime fires, the sanctioned comm_stats include does not.
  EXPECT_EQ(counts.at("layer-no-parallel-in-sequential"), 1);
  EXPECT_EQ(report.findings.size(), 5u);
}

TEST(LintFixtures, SectionGatherViolationsFire) {
  const Report report = lint_fixture("gathers");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // The coarsening gather fires despite its allow(); the
  // initial-partitioning gather between the markers stays silent.
  EXPECT_EQ(counts.at("no-coarsening-gathers"), 1);
  EXPECT_EQ(counts.at("no-refinement-block-gathers"), 1);
  // An allow() targeting the unsuppressible coarsening rule is itself
  // flagged.
  EXPECT_EQ(counts.at("malformed-suppression"), 1);
  EXPECT_EQ(report.findings.size(), 3u);
}

TEST(LintFixtures, RemovedEntryPointsFire) {
  const Report report = lint_fixture("entrypoints");
  EXPECT_EQ(report.exit_code, 1);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "no-removed-entry-points");
}

TEST(LintFixtures, CollectiveDivergenceFires) {
  const Report report = lint_fixture("divergence");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // if-block, else branch, else-if, and braceless single statement; the
  // rank-free guard and the unconditional barrier stay silent.
  EXPECT_EQ(counts.at("collective-divergence"), 4);
  EXPECT_EQ(report.findings.size(), 4u);
}

TEST(LintFixtures, DeterminismSourcesFire) {
  const Report report = lint_fixture("determinism");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // Entropy, wall clock, pointer-keyed hashing, hash-order range-for;
  // keyed lookups into unordered containers stay silent. The wall-clock
  // read additionally fires the clock-confinement rule (same hazard seen
  // from the tracing side).
  EXPECT_EQ(counts.at("determinism-sources"), 4);
  EXPECT_EQ(counts.at("trace-clock-confinement"), 1);
  EXPECT_EQ(report.findings.size(), 5u);
}

TEST(LintFixtures, TraceClockConfinementFires) {
  const Report report = lint_fixture("trace_clock");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // Each raw clock read in a partition-reaching layer is both a timing
  // side channel and a nondeterminism source; the transport carve-out
  // file stays silent under both rules.
  EXPECT_EQ(counts.at("trace-clock-confinement"), 2);
  EXPECT_EQ(counts.at("determinism-sources"), 2);
  EXPECT_EQ(report.findings.size(), 4u);
}

TEST(LintFixtures, TraceFeedbackFires) {
  const Report report = lint_fixture("trace_feedback");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // read_dropped, read_events, and a MetricsRegistry read in algorithm
  // layers; writing spans never fires.
  EXPECT_EQ(counts.at("trace-no-feedback"), 3);
  EXPECT_EQ(report.findings.size(), 3u);
}

TEST(LintFixtures, HeartbeatLaneIsolationFires) {
  const Report report = lint_fixture("heartbeat");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // Liveness-steered pairing, a payload on the observer-only heartbeat
  // lane, and backlog-adaptive draining — each a feedback channel from
  // the watch layer into the partition; the sanctioned app-lane send
  // stays silent.
  EXPECT_EQ(counts.at("heartbeat-lane-isolation"), 3);
  EXPECT_EQ(report.findings.size(), 3u);
}

TEST(LintFixtures, DenseLevelIdsFire) {
  const Report report = lint_fixture("dense_ids");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // A hash_map member and an unordered_set in the coarsening store, a
  // hash_set in the pair-side codec and a hash_map entry-block record in
  // the pair kernel; the suppressed handle table and the partition-state
  // cache (outside the rule's files) stay silent.
  EXPECT_EQ(counts.at("dense-level-ids"), 4);
  EXPECT_EQ(report.findings.size(), 4u);
}

TEST(LintFixtures, ValidSuppressionsSilenceFindings) {
  const Report report = lint_fixture("suppress_valid");
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintFixtures, StaleSuppressionIsAnError) {
  const Report report = lint_fixture("suppress_stale");
  EXPECT_EQ(report.exit_code, 1);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "stale-suppression");
}

TEST(LintFixtures, MalformedSuppressionsAreErrors) {
  const Report report = lint_fixture("suppress_malformed");
  EXPECT_EQ(report.exit_code, 1);
  const auto counts = count_by_rule(report);
  // A missing reason and an unknown check name — and neither annotation
  // suppresses, so the underlying findings fire as well.
  EXPECT_EQ(counts.at("malformed-suppression"), 2);
  EXPECT_EQ(counts.at("determinism-sources"), 2);
  EXPECT_EQ(report.findings.size(), 4u);
}

// ---------------------------------------------------------------- driver ----

TEST(LintDriver, MissingRuleTableIsConfigError) {
  Options options;
  options.rules_path = tool_dir() + "/no-such-rules.kl";
  options.roots = {tool_dir() + "/fixtures/clean"};
  std::ostringstream diag;
  EXPECT_EQ(run(options, diag).exit_code, 2);
}

TEST(LintDriver, SelfCheckEnforcesMinimumTableSize) {
  Options options;
  options.rules_path = tool_dir() + "/rules.kl";
  options.self_check = true;
  // Former CI guards + new families + trace + watch + dense level ids.
  options.min_rules = 14;
  std::ostringstream diag;
  const Report report = run(options, diag);
  EXPECT_EQ(report.exit_code, 0) << diag.str();
  EXPECT_GE(report.rules_loaded, 14u);

  options.min_rules = 1000;
  std::ostringstream diag2;
  EXPECT_EQ(run(options, diag2).exit_code, 2);
}

// The acceptance gate: the production tree is clean under its own linter.
TEST(LintDriver, RealSourceTreeIsClean) {
  Options options;
  options.rules_path = tool_dir() + "/rules.kl";
  options.roots = {KAPPA_LINT_SRC_DIR};
  std::ostringstream diag;
  const Report report = run(options, diag);
  EXPECT_EQ(report.exit_code, 0) << diag.str();
}

}  // namespace
}  // namespace kappa_lint
