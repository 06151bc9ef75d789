// Admission control & backpressure tests for stream::SessionManager:
// global session / buffered-fix / byte budgets, the two overload
// policies (reject-new, shed-oldest-idle), heap-driven idle eviction,
// checkpoint / restore of the budget accounting, the Health() operator
// view, and a deterministic 10x-oversubscribed saturation run under a
// FakeClock.

#include "stream/session_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "store/semantic_trajectory_store.h"

namespace semitri::stream {
namespace {

using common::FakeClock;
using common::StatusCode;

core::GpsPoint Fix(double t, double x = 100.0, double y = 100.0) {
  return core::GpsPoint{{x, y}, t};
}

class OverloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WorldConfig wc;
    wc.seed = 57;
    wc.extent_meters = 4000.0;
    wc.num_pois = 400;
    world_ = std::make_unique<datagen::World>(
        datagen::WorldGenerator(wc).Generate());
    factory_ = std::make_unique<datagen::DatasetFactory>(world_.get(), 23);
    // Regions-only pipeline: full annotation behaviour without the cost
    // of map matching / HMM inference in overload-shaped loops.
    pipeline_ = std::make_unique<core::SemiTriPipeline>(
        &world_->regions, nullptr, nullptr);
  }

  std::vector<core::GpsPoint> PersonStream(int index, int days) {
    datagen::PersonSpec spec = factory_->MakePersonSpec(index);
    return factory_->SimulatePersonDays(index, spec, days).points;
  }

  SessionManagerConfig ConfigWith(AdmissionConfig admission) {
    SessionManagerConfig config;
    config.admission = admission;
    return config;
  }

  FakeClock clock_;
  std::unique_ptr<datagen::World> world_;
  std::unique_ptr<datagen::DatasetFactory> factory_;
  std::unique_ptr<core::SemiTriPipeline> pipeline_;
};

// ---------------------------------------------------------------------
// Budgets and the reject-new policy.
// ---------------------------------------------------------------------

TEST_F(OverloadFixture, RejectNewSessionWhenSessionBudgetFull) {
  AdmissionConfig admission;
  admission.max_sessions = 2;
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  ASSERT_TRUE(manager.Feed(1, Fix(0.0)).ok());
  ASSERT_TRUE(manager.Feed(2, Fix(0.0)).ok());
  // Third object exceeds the session budget; fail fast.
  common::Result<AnnotationSession::FeedResult> rejected =
      manager.Feed(3, Fix(0.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.ActiveSessions(), 2u);
  EXPECT_EQ(manager.stats().admission_rejected_sessions, 1u);

  // Existing sessions keep feeding: the budget gates admissions, not
  // already-admitted work.
  EXPECT_TRUE(manager.Feed(1, Fix(1.0)).ok());
  EXPECT_TRUE(manager.Feed(2, Fix(1.0)).ok());
}

TEST_F(OverloadFixture, BufferedFixBudgetRejectsFixesToExistingSessions) {
  AdmissionConfig admission;
  admission.max_buffered_fixes = 5;
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(manager.Feed(7, Fix(k)).ok());
  }
  EXPECT_EQ(manager.stats().buffered_fixes, 5u);

  common::Result<AnnotationSession::FeedResult> rejected =
      manager.Feed(7, Fix(5.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The optimistic claim was rolled back: usage is unchanged.
  EXPECT_EQ(manager.stats().buffered_fixes, 5u);
  EXPECT_EQ(manager.stats().overload_rejected_fixes, 1u);
  EXPECT_EQ(manager.stats().admission_rejected_sessions, 0u);
}

TEST_F(OverloadFixture, ByteBudgetChargesFixesPlusSessionOverhead) {
  AdmissionConfig admission;
  // Exactly 10 buffered fixes for one session fit; the 11th does not.
  admission.max_buffered_bytes =
      SessionManager::kSessionOverheadBytes + 10 * sizeof(core::GpsPoint);
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(manager.Feed(1, Fix(k)).ok()) << "fix " << k;
  }
  common::Result<AnnotationSession::FeedResult> rejected =
      manager.Feed(1, Fix(10.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.stats().buffered_fixes, 10u);
}

TEST_F(OverloadFixture, BudgetsReleasedOnFlushCloseAndEvict) {
  AdmissionConfig admission;
  admission.max_buffered_fixes = 5;
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  for (int k = 0; k < 5; ++k) ASSERT_TRUE(manager.Feed(1, Fix(k)).ok());
  EXPECT_FALSE(manager.Feed(1, Fix(5.0)).ok());

  // Flush finalizes the open trajectory and releases its buffer charge.
  ASSERT_TRUE(manager.Flush(1).ok());
  EXPECT_EQ(manager.stats().buffered_fixes, 0u);
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(manager.Feed(1, Fix(10.0 + k)).ok());

  // Close releases both the fixes and the session slot.
  ASSERT_TRUE(manager.Close(1).ok());
  EXPECT_EQ(manager.stats().buffered_fixes, 0u);
  EXPECT_EQ(manager.ActiveSessions(), 0u);

  for (int k = 0; k < 5; ++k) ASSERT_TRUE(manager.Feed(2, Fix(k)).ok());
  auto evicted = manager.EvictIdle(0.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 1u);
  EXPECT_EQ(manager.stats().buffered_fixes, 0u);
}

// ---------------------------------------------------------------------
// Shed-oldest-idle.
// ---------------------------------------------------------------------

TEST_F(OverloadFixture, ShedOldestIdleEvictsLeastRecentlyFedFirst) {
  AdmissionConfig admission;
  admission.max_sessions = 2;
  admission.overload_policy = OverloadPolicy::kShedOldestIdle;
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  ASSERT_TRUE(manager.Feed(1, Fix(0.0)).ok());
  clock_.Advance(1.0);
  ASSERT_TRUE(manager.Feed(2, Fix(0.0)).ok());
  clock_.Advance(1.0);
  // Refresh object 1: object 2 is now the least recently fed.
  ASSERT_TRUE(manager.Feed(1, Fix(1.0)).ok());
  clock_.Advance(1.0);

  ASSERT_TRUE(manager.Feed(3, Fix(0.0)).ok());
  EXPECT_EQ(manager.ActiveSessions(), 2u);
  EXPECT_EQ(manager.stats().sessions_shed, 1u);
  // Object 2 (stale) was shed; 1 and 3 are live.
  EXPECT_EQ(manager.Close(2).code(), StatusCode::kNotFound);
  EXPECT_TRUE(manager.Flush(1).ok());
  EXPECT_TRUE(manager.Flush(3).ok());
}

TEST_F(OverloadFixture, ShedNeverTargetsTheObjectBeingAdmitted) {
  AdmissionConfig admission;
  admission.max_buffered_fixes = 3;
  admission.overload_policy = OverloadPolicy::kShedOldestIdle;
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  // One object alone exceeds the budget: there is nothing to shed but
  // itself, which the policy refuses — the fix is rejected instead.
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(manager.Feed(1, Fix(k)).ok());
  common::Result<AnnotationSession::FeedResult> rejected =
      manager.Feed(1, Fix(3.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.stats().sessions_shed, 0u);
  EXPECT_TRUE(manager.Flush(1).ok());  // still live
}

TEST_F(OverloadFixture, SheddingPreservesDurableRows) {
  // Shedding goes through the flushing Close path: the shed session's
  // rows must equal what the offline pipeline produces for the same
  // stream — nothing durable is lost to load shedding.
  std::vector<core::GpsPoint> stream = PersonStream(0, 1);

  store::SemanticTrajectoryStore offline_store;
  core::SemiTriPipeline offline(&world_->regions, nullptr, nullptr,
                                core::PipelineConfig{}, &offline_store);
  ASSERT_TRUE(offline.ProcessStream(4, stream, 4 * 1000).ok());

  store::SemanticTrajectoryStore live_store;
  core::SemiTriPipeline live(&world_->regions, nullptr, nullptr,
                             core::PipelineConfig{}, &live_store);
  AdmissionConfig admission;
  admission.max_sessions = 1;
  admission.overload_policy = OverloadPolicy::kShedOldestIdle;
  SessionManager manager(&live, ConfigWith(admission), &clock_);

  for (const core::GpsPoint& fix : stream) {
    ASSERT_TRUE(manager.Feed(4, fix).ok());
  }
  clock_.Advance(1.0);
  // Admitting object 5 sheds object 4 through Close.
  ASSERT_TRUE(manager.Feed(5, Fix(0.0)).ok());
  EXPECT_EQ(manager.stats().sessions_shed, 1u);
  EXPECT_EQ(manager.Close(4).code(), StatusCode::kNotFound);

  // Object 5 has written nothing yet (one fix, no closed episodes), so
  // the live store holds exactly object 4's offline end state.
  EXPECT_TRUE(live_store.ContentEquals(offline_store));
}

// ---------------------------------------------------------------------
// Heap-driven idle eviction.
// ---------------------------------------------------------------------

TEST_F(OverloadFixture, EvictIdleUsesAuthoritativeActivityNotStaleHeapTicks) {
  SessionManager manager(pipeline_.get(), SessionManagerConfig{}, &clock_);

  ASSERT_TRUE(manager.Feed(1, Fix(0.0)).ok());  // heap entry at t=0
  clock_.Advance(10.0);
  ASSERT_TRUE(manager.Feed(2, Fix(0.0)).ok());  // t=10
  clock_.Advance(10.0);
  // Refresh object 1 at t=20: its t=0 heap entry is now stale.
  ASSERT_TRUE(manager.Feed(1, Fix(1.0)).ok());

  // cutoff = now - 5 = t=15: object 2 (t=10) is idle, object 1 (t=20)
  // is not — even though object 1's *stale* heap tick (t=0) is oldest.
  auto evicted = manager.EvictIdle(5.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 1u);
  EXPECT_EQ(manager.ActiveSessions(), 1u);
  EXPECT_TRUE(manager.Flush(1).ok());
  EXPECT_EQ(manager.Flush(2).code(), StatusCode::kNotFound);

  // Nothing else is idle past the threshold.
  auto again = manager.EvictIdle(5.0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

// ---------------------------------------------------------------------
// Checkpoint / restore rebuilds the budget accounting.
// ---------------------------------------------------------------------

TEST_F(OverloadFixture, RestoreRebuildsBudgetAccountingAndActivity) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "semitri_overload_ckpt.bin").string();

  AdmissionConfig admission;
  admission.max_buffered_fixes = 20;
  SessionManagerConfig config = ConfigWith(admission);

  SessionManager manager(pipeline_.get(), config, &clock_);
  for (int k = 0; k < 10; ++k) ASSERT_TRUE(manager.Feed(1, Fix(k)).ok());
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(manager.Feed(2, Fix(k)).ok());
  ASSERT_EQ(manager.stats().buffered_fixes, 15u);
  ASSERT_TRUE(manager.Checkpoint(path).ok());

  SessionManager restored(pipeline_.get(), config, &clock_);
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.ActiveSessions(), 2u);
  // The budget charge was rebuilt from the restored sessions' buffers.
  EXPECT_EQ(restored.stats().buffered_fixes, 15u);

  // Enforcement picks up where the original left off: 5 more fixes fill
  // the budget, the 21st is rejected.
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(restored.Feed(1, Fix(10.0 + k)).ok()) << "fix " << k;
  }
  common::Result<AnnotationSession::FeedResult> rejected =
      restored.Feed(1, Fix(20.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The activity heap was rebuilt too: idle eviction still works.
  auto evicted = restored.EvictIdle(0.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_EQ(restored.stats().buffered_fixes, 0u);
  fs::remove(path);
}

// ---------------------------------------------------------------------
// Health snapshot.
// ---------------------------------------------------------------------

TEST_F(OverloadFixture, HealthReportsBudgetGaugesAndOverloadCounters) {
  AdmissionConfig admission;
  admission.max_sessions = 4;
  admission.max_buffered_fixes = 100;
  SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock_);

  ASSERT_TRUE(manager.Feed(1, Fix(0.0)).ok());
  ASSERT_TRUE(manager.Feed(2, Fix(0.0)).ok());

  core::HealthSnapshot health = manager.Health();
  // Per-stage rows come from the pipeline.
  EXPECT_EQ(health.stages.size(), pipeline_->Health().stages.size());
  EXPECT_EQ(health.sessions.used, 2u);
  EXPECT_EQ(health.sessions.limit, 4u);
  EXPECT_EQ(health.buffered_fixes.used, 2u);
  EXPECT_EQ(health.buffered_fixes.limit, 100u);
  EXPECT_EQ(health.buffered_bytes.used,
            2 * sizeof(core::GpsPoint) +
                2 * SessionManager::kSessionOverheadBytes);
  EXPECT_FALSE(health.degraded());  // 50% of the session budget

  ASSERT_TRUE(manager.Feed(3, Fix(0.0)).ok());
  ASSERT_TRUE(manager.Feed(4, Fix(0.0)).ok());
  core::HealthSnapshot full = manager.Health();
  EXPECT_DOUBLE_EQ(full.sessions.utilization(), 1.0);
  EXPECT_TRUE(full.degraded());  // >= 90% utilized
  EXPECT_FALSE(full.ToString().empty());

  // A bare pipeline snapshot carries stages but no budgets.
  core::HealthSnapshot bare = pipeline_->Health();
  EXPECT_EQ(bare.stages.size(), health.stages.size());
  EXPECT_EQ(bare.sessions.limit, 0u);
  EXPECT_FALSE(bare.degraded());
}

// ---------------------------------------------------------------------
// Saturation: a 10x-oversubscribed synthetic feed stays within budget,
// sheds deterministically, and keeps accepting work.
// ---------------------------------------------------------------------

TEST_F(OverloadFixture, TenfoldOversubscriptionStaysWithinBudgetsAndSheds) {
  constexpr int kObjects = 10;       // 10 feeders...
  constexpr size_t kMaxSessions = 1; // ...per session slot
  constexpr size_t kMaxFixes = 400;
  constexpr size_t kChunk = 50;

  std::vector<std::vector<core::GpsPoint>> streams;
  for (int i = 0; i < kObjects; ++i) streams.push_back(PersonStream(i, 1));

  auto run_once = [&](SessionManager::Stats* out) {
    FakeClock clock;
    AdmissionConfig admission;
    admission.max_sessions = kMaxSessions;
    admission.max_buffered_fixes = kMaxFixes;
    admission.overload_policy = OverloadPolicy::kShedOldestIdle;
    SessionManager manager(pipeline_.get(), ConfigWith(admission), &clock);

    size_t longest = 0;
    for (const auto& s : streams) longest = std::max(longest, s.size());
    for (size_t base = 0; base < longest; base += kChunk) {
      for (int i = 0; i < kObjects; ++i) {
        for (size_t k = base; k < std::min(base + kChunk, streams[i].size());
             ++k) {
          common::Result<AnnotationSession::FeedResult> fed =
              manager.Feed(i, streams[i][k]);
          // Shed-oldest-idle admits every fix here: there is always an
          // idle session to shed (9 idle feeders per slot).
          ASSERT_TRUE(fed.ok()) << fed.status().ToString();
        }
        clock.Advance(0.1);
        // Budget invariants hold at every admission boundary.
        SessionManager::Stats stats = manager.stats();
        ASSERT_LE(manager.ActiveSessions(), kMaxSessions);
        ASSERT_LE(stats.buffered_fixes, kMaxFixes);
      }
    }
    ASSERT_TRUE(manager.CloseAll().ok());
    *out = manager.stats();
  };

  SessionManager::Stats first;
  run_once(&first);
  // 10 feeders sharing one slot: shedding must have happened, and every
  // fed fix was accepted (shed-oldest-idle back-pressures by evicting,
  // not by dropping inbound work).
  EXPECT_GT(first.sessions_shed, 0u);
  size_t total_points = 0;
  for (const auto& s : streams) total_points += s.size();
  EXPECT_EQ(first.points_fed, total_points);
  EXPECT_EQ(first.buffered_fixes, 0u);  // everything drained by CloseAll
  EXPECT_EQ(first.overload_rejected_fixes, 0u);
  EXPECT_EQ(first.admission_rejected_sessions, 0u);

  // The whole overload schedule is deterministic under the fake clock:
  // a second identical run reproduces every counter exactly.
  SessionManager::Stats second;
  run_once(&second);
  EXPECT_EQ(second.sessions_shed, first.sessions_shed);
  EXPECT_EQ(second.sessions_opened, first.sessions_opened);
  EXPECT_EQ(second.sessions_evicted, first.sessions_evicted);
  EXPECT_EQ(second.points_fed, first.points_fed);
  EXPECT_EQ(second.episodes_closed, first.episodes_closed);
  EXPECT_EQ(second.trajectories_closed, first.trajectories_closed);
  EXPECT_EQ(second.trajectories_discarded, first.trajectories_discarded);
}

}  // namespace
}  // namespace semitri::stream
