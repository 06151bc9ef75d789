// Tests for the deterministic fault injector: policy semantics
// (fail-once / fail-nth / always), hit accounting, site registration,
// and the SEMITRI_FAULT_FIRE engage gate.
//
// The policy tests drive FaultInjector::Fire directly; the gate test
// checks the macro in a fresh child process, whose injector no harness
// has engaged yet.

#include "common/fault_injection.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace semitri::common {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectionTest, UnarmedSiteNeverTriggers) {
  FaultInjector& fi = FaultInjector::Global();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fi.Fire("test_site"), FaultAction::kNone);
  }
  EXPECT_EQ(fi.HitCount("test_site"), 10u);
}

TEST_F(FaultInjectionTest, FailOnceTriggersExactlyOnce) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("s", FaultPolicy::FailOnce());
  EXPECT_EQ(fi.Fire("s"), FaultAction::kFail);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
}

TEST_F(FaultInjectionTest, FailNthCountsFromArming) {
  FaultInjector& fi = FaultInjector::Global();
  // Pre-arm hits must not count toward the policy.
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  fi.Arm("s", FaultPolicy::FailNth(3));
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kFail);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
}

TEST_F(FaultInjectionTest, FailAlwaysRepeats) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("s", FaultPolicy::FailAlways());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fi.Fire("s"), FaultAction::kFail);
  }
}

TEST_F(FaultInjectionTest, CrashNthReturnsCrash) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("s", FaultPolicy::CrashNth(2));
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kCrash);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
}

TEST_F(FaultInjectionTest, DisarmStopsTriggering) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("s", FaultPolicy::FailAlways());
  EXPECT_EQ(fi.Fire("s"), FaultAction::kFail);
  fi.Disarm("s");
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.HitCount("s"), 2u);  // hit stats survive disarm
}

TEST_F(FaultInjectionTest, RearmRestartsPolicyCount) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("s", FaultPolicy::FailNth(2));
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  fi.Arm("s", FaultPolicy::FailNth(2));  // restart: next hit is post-arm #1
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kFail);
}

TEST_F(FaultInjectionTest, SitesRegisterOnFirstFire) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Fire("b_site");
  fi.Fire("a_site");
  fi.Fire("b_site");
  std::vector<std::string> sites = fi.Sites();
  ASSERT_GE(sites.size(), 2u);
  EXPECT_TRUE(std::find(sites.begin(), sites.end(), "a_site") != sites.end());
  EXPECT_TRUE(std::find(sites.begin(), sites.end(), "b_site") != sites.end());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
}

TEST_F(FaultInjectionTest, ResetClearsHitsAndPolicies) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("s", FaultPolicy::FailAlways());
  fi.Fire("s");
  fi.Reset();
  EXPECT_EQ(fi.HitCount("s"), 0u);
  EXPECT_EQ(fi.Fire("s"), FaultAction::kNone);  // disarmed
  // Registered names survive Reset so discovery runs stay valid.
  std::vector<std::string> sites = fi.Sites();
  EXPECT_TRUE(std::find(sites.begin(), sites.end(), "s") != sites.end());
}

// Fires one site before and one after Reset(). Exits 0 if the first
// skipped the injector and the second reached it, else 1 with the
// failed check on stderr.
[[noreturn]] void FireIdleThenEngaged() {
  int evaluations = 0;
  auto site = [&evaluations] {
    ++evaluations;
    return std::string("idle_site");
  };
  auto require = [](bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "%s\n", what);
    std::exit(1);
  };
  FaultInjector& fi = FaultInjector::Global();
  require(SEMITRI_FAULT_FIRE(site()) == FaultAction::kNone,
          "idle site returned an action");
  require(evaluations == 0, "idle site evaluated its argument");
  require(fi.Sites().empty(), "idle site registered itself");
  fi.Reset();
  require(SEMITRI_FAULT_FIRE(site()) == FaultAction::kNone,
          "unarmed site returned an action");
  require(evaluations == 1, "engaged site did not evaluate once");
  require(fi.HitCount("idle_site") == 1, "engaged site not counted");
  require(fi.Sites() == std::vector<std::string>{"idle_site"},
          "engaged site not registered");
  std::exit(0);
}

// The idle fast path: until the first Arm() or Reset() the macro
// returns kNone without evaluating its argument or registering the
// site. The child re-executes this binary ("threadsafe" death-test
// style), so its injector is unengaged whatever this process ran
// before.
TEST(FaultInjectionDeathTest, IdleMacroSkipsTheInjectorUntilEngaged) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(FireIdleThenEngaged(), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace semitri::common
