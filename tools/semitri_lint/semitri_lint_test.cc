// Fixture tests for the semitri-lint checker suite. Each check gets a
// must-flag fixture, a must-pass fixture, and a suppression case; the
// fixtures live in testdata/ and are loaded with synthetic in-scope
// repo paths (the checks scope themselves by path, e.g. guarded-by
// audits src/ only).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "lint_util.h"

namespace semitri::lint {
namespace {

SourceFile LoadFixture(const std::string& file, const std::string& as_path) {
  auto loaded = SourceFile::Load(
      std::string(SEMITRI_LINT_TESTDATA_DIR) + "/" + file, as_path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

size_t CountOnLine(const std::vector<Finding>& findings,
                   const std::string& file, size_t line) {
  return std::count_if(findings.begin(), findings.end(),
                       [&](const Finding& f) {
                         return f.file == file && f.line == line;
                       });
}

size_t LineOfMarker(const SourceFile& f, const std::string& marker) {
  for (size_t li = 1; li <= f.line_count(); ++li) {
    if (f.raw_line(li).find(marker) != std::string::npos) return li;
  }
  ADD_FAILURE() << "marker not found: " << marker;
  return 0;
}

TEST(UncheckedStatusTest, FlagsDroppedStatuses) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("unchecked_status_bad.cc", "src/fixture/bad_status.cc"));
  const SourceFile& f = corpus.files[0];
  std::vector<Finding> findings = CheckUncheckedStatus(corpus);

  // Four drops: plain, qualified, Result, and inside a macro body.
  EXPECT_EQ(findings.size(), 4u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "DoWork();  // FLAG: whole")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "fixture::DoWork();")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "ParseCount(text);")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "DoWork();                      \\")),
            1u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.check, "unchecked-status");
  }
}

TEST(UncheckedStatusTest, PassesConsumedAndSuppressed) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("unchecked_status_good.cc", "src/fixture/good_status.cc"));
  EXPECT_TRUE(CheckUncheckedStatus(corpus).empty());
}

TEST(UncheckedStatusTest, ReasonlessSuppressionIsNotHonored) {
  Corpus corpus;
  corpus.files.push_back(LoadFixture("suppression_bad.cc",
                                     "src/fixture/suppression_bad.cc"));
  // The drop is still reported (the waiver has no reason)...
  EXPECT_EQ(CheckUncheckedStatus(corpus).size(), 1u);
  // ...and RunChecks additionally reports the malformed waiver itself.
  std::vector<Finding> all = RunChecks(corpus, {"unchecked-status"});
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const Finding& f) {
    return f.check == "suppression";
  }));
}

TEST(GuardedByTest, FlagsUnannotatedMemberNextToMutex) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("guarded_by_bad.h", "src/fixture/guarded_bad.h"));
  const SourceFile& f = corpus.files[0];
  std::vector<Finding> findings = CheckGuardedByCompleteness(corpus);

  EXPECT_EQ(findings.size(), 1u);
  EXPECT_EQ(CountOnLine(findings, f.path(), LineOfMarker(f, "total_puts_")),
            1u);
  EXPECT_EQ(findings[0].check, "guarded-by-completeness");
}

TEST(GuardedByTest, SeesMembersDeclaredAfterInlineBodies) {
  Corpus corpus;
  corpus.files.push_back(LoadFixture("guarded_by_inline_bodies.h",
                                     "src/fixture/guarded_inline.h"));
  const SourceFile& f = corpus.files[0];
  std::vector<Finding> findings = CheckGuardedByCompleteness(corpus);

  EXPECT_EQ(findings.size(), 1u);
  EXPECT_EQ(CountOnLine(findings, f.path(), LineOfMarker(f, "bumps_ = 0")),
            1u);
}

TEST(GuardedByTest, PassesAnnotatedExemptAndSuppressed) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("guarded_by_good.h", "src/fixture/guarded_good.h"));
  EXPECT_TRUE(CheckGuardedByCompleteness(corpus).empty());
}

TEST(GuardedByTest, TestFilesAreOutOfScope) {
  Corpus corpus;
  // guarded-by audits the library only: the same class in tests/ is
  // not a finding.
  corpus.files.push_back(
      LoadFixture("guarded_by_bad.h", "tests/guarded_bad.h"));
  EXPECT_TRUE(CheckGuardedByCompleteness(corpus).empty());
}

Corpus FaultCorpus(const std::string& src_fixture,
                   const std::string& registry_fixture) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture(src_fixture, "src/fixture/sites.cc"));
  corpus.files.push_back(
      LoadFixture(registry_fixture, "src/common/fault_sites.h"));
  corpus.files.push_back(LoadFixture("fault_sites_recovery_test.cc",
                                     "tests/recovery_test.cc"));
  return corpus;
}

TEST(FaultSiteTest, FlagsRogueDuplicateAndDynamicSites) {
  Corpus corpus =
      FaultCorpus("fault_sites_bad.cc", "fault_sites_registry.h");
  const SourceFile& f = corpus.files[0];
  std::vector<Finding> findings = CheckFaultSiteRegistry(corpus);

  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(CountOnLine(findings, f.path(), LineOfMarker(f, "rogue_site")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "// FLAG: duplicate")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "// FLAG: no literal")),
            1u);
}

TEST(FaultSiteTest, FlagsStaleRegistryEntry) {
  Corpus corpus =
      FaultCorpus("fault_sites_good.cc", "fault_sites_registry_stale.h");
  std::vector<Finding> findings = CheckFaultSiteRegistry(corpus);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("stale_site"), std::string::npos);
}

TEST(FaultSiteTest, FlagsMissingRegistryInclude) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("fault_sites_good.cc", "src/fixture/sites.cc"));
  corpus.files.push_back(
      LoadFixture("fault_sites_registry.h", "src/common/fault_sites.h"));
  // No recovery_test in the corpus at all.
  std::vector<Finding> findings = CheckFaultSiteRegistry(corpus);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tests/recovery_test.cc");
}

TEST(FaultSiteTest, PassesRegisteredPrefixAndSuppressed) {
  Corpus corpus =
      FaultCorpus("fault_sites_good.cc", "fault_sites_registry.h");
  EXPECT_TRUE(CheckFaultSiteRegistry(corpus).empty());
}

TEST(FaultSiteTest, RequiresSelfHealingSitesWhileOwnerExists) {
  // The owning file is present but fires nothing the extractor can see
  // (the refactored-to-computed-name hazard); the registry lacks the
  // required failover_promote entry, which must be a finding anyway.
  Corpus corpus =
      FaultCorpus("fault_sites_good.cc", "fault_sites_registry.h");
  corpus.files.push_back(
      LoadFixture("unchecked_status_good.cc", "src/shard/cluster.cc"));
  std::vector<Finding> findings = CheckFaultSiteRegistry(corpus);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/common/fault_sites.h");
  EXPECT_NE(findings[0].message.find("failover_promote"), std::string::npos);
}

TEST(RunChecksTest, UnknownCheckNameIsReported) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("unchecked_status_good.cc", "src/fixture/good_status.cc"));
  std::vector<Finding> findings = RunChecks(corpus, {"no-such-check"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "driver");
}

TEST(RunChecksTest, DeterministicOrder) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("unchecked_status_bad.cc", "src/fixture/bad_status.cc"));
  std::vector<Finding> first = RunChecks(corpus, {});
  std::vector<Finding> second = RunChecks(corpus, {});
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ToString(), second[i].ToString());
  }
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i - 1].file, first[i].file);
  }
}

TEST(HotPathAllocTest, FlagsNestedVectorsAndPerIterationContainers) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("hot_path_alloc_bad.cc", "src/hmm/hmm.cc"));
  const SourceFile& f = corpus.files[0];
  std::vector<Finding> findings = CheckHotPathAlloc(corpus);

  // Two nested-vector lines, two per-iteration constructions.
  EXPECT_EQ(findings.size(), 4u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: nested return type")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: nested local")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: constructed every")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: per-iteration map")),
            1u);
}

TEST(HotPathAllocTest, OutOfScopePathIsIgnored) {
  // The check governs the data-plane TUs only; the same content in a
  // non-hot file (or under tests/) is not audited.
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("hot_path_alloc_bad.cc", "src/traj/segmentation.cc"));
  EXPECT_TRUE(CheckHotPathAlloc(corpus).empty());
  corpus.files.clear();
  corpus.files.push_back(
      LoadFixture("hot_path_alloc_bad.cc", "tests/some_test.cc"));
  EXPECT_TRUE(CheckHotPathAlloc(corpus).empty());
}

TEST(HotPathAllocTest, PassesHoistedReferenceAndSuppressed) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("hot_path_alloc_good.cc", "src/road/map_matcher.cc"));
  std::vector<Finding> findings = CheckHotPathAlloc(corpus);
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(RawFilesystemTest, FlagsSyscallsStreamsAndFilesystemNamespace) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("raw_filesystem_bad.cc", "src/store/some_store.cc"));
  const SourceFile& f = corpus.files[0];
  std::vector<Finding> findings = CheckRawFilesystem(corpus);

  // ::open, ::fsync, each stream class, and std::filesystem.
  EXPECT_EQ(findings.size(), 6u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: raw open")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: raw fsync")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: ofstream")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: ifstream")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: fstream")),
            1u);
  EXPECT_EQ(CountOnLine(findings, f.path(),
                        LineOfMarker(f, "FLAG: std::filesystem")),
            1u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.check, "raw-filesystem");
  }
}

TEST(RawFilesystemTest, EnvImplementationAndTestsAreOutOfScope) {
  // The Env implementation is the sanctioned home for raw syscalls,
  // and the check governs src/ only.
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("raw_filesystem_bad.cc", "src/common/env.cc"));
  EXPECT_TRUE(CheckRawFilesystem(corpus).empty());
  corpus.files.clear();
  corpus.files.push_back(
      LoadFixture("raw_filesystem_bad.cc", "src/common/env_posix.cc"));
  EXPECT_TRUE(CheckRawFilesystem(corpus).empty());
  corpus.files.clear();
  corpus.files.push_back(
      LoadFixture("raw_filesystem_bad.cc", "tests/some_test.cc"));
  EXPECT_TRUE(CheckRawFilesystem(corpus).empty());
}

TEST(RawFilesystemTest, PassesEnvRoutedCommentsStringsAndSuppressed) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("raw_filesystem_good.cc", "src/store/some_store.cc"));
  std::vector<Finding> findings = CheckRawFilesystem(corpus);
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(SuppressionTest, WaiverNamingNoCheckIsReported) {
  Corpus corpus;
  corpus.files.push_back(
      LoadFixture("suppression_unknown_check.cc",
                  "src/fixture/suppression_unknown_check.cc"));
  const SourceFile& f = corpus.files[0];
  // Only the waiver naming no check is reported, whichever checks run,
  // and the waiver naming unchecked-status still holds.
  const std::vector<std::vector<std::string>> selections = {
      {"unchecked-status"}, {"hot-path-alloc"}};
  for (const std::vector<std::string>& checks : selections) {
    std::vector<Finding> findings = RunChecks(corpus, checks);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "suppression");
    EXPECT_EQ(findings[0].line, LineOfMarker(f, "allow(no-such-check)"));
  }
}

TEST(SuppressionTest, MultiLineReasonBlockStaysAttached) {
  SourceFile f("src/fixture/inline.cc",
               "// semitri-lint: allow(unchecked-status) — the reason\n"
               "// wraps onto a second comment line.\n"
               "DoWork();\n"
               "\n"
               "AlsoWork();\n");
  EXPECT_TRUE(f.IsSuppressed("unchecked-status", 3));
  // The blank line breaks the comment block: line 5 is not covered.
  EXPECT_FALSE(f.IsSuppressed("unchecked-status", 5));
  // A different check name is not covered either.
  EXPECT_FALSE(f.IsSuppressed("guarded-by-completeness", 3));
}

}  // namespace
}  // namespace semitri::lint
