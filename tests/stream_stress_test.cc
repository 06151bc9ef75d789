// Concurrency stress for stream::SessionManager: many ingestion threads
// hammering one manager over one shared pipeline (store + profiler
// sinks attached), with concurrent Flush / EvictIdle / stats readers.
// Runs under the TSan CI leg (-DSEMITRI_SANITIZE=thread) like every
// other test, which is where it earns its keep: any unguarded shared
// state in the streaming subsystem shows up as a data-race report.

#include "stream/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "analytics/latency_profiler.h"
#include "common/rng.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "store/semantic_trajectory_store.h"

namespace semitri::stream {
namespace {

TEST(StreamStressTest, ConcurrentFeedersSharedPipeline) {
  datagen::WorldConfig wc;
  wc.seed = 51;
  wc.extent_meters = 3000.0;
  wc.num_pois = 400;
  datagen::World world = datagen::WorldGenerator(wc).Generate();
  datagen::DatasetFactory factory(&world, 52);

  constexpr int kObjects = 8;
  constexpr int kFeeders = 4;
  std::vector<std::vector<core::GpsPoint>> streams;
  for (int i = 0; i < kObjects; ++i) {
    datagen::PersonSpec spec = factory.MakePersonSpec(i);
    streams.push_back(factory.SimulatePersonDays(i, spec, 1).points);
  }

  store::SemanticTrajectoryStore store;
  analytics::LatencyProfiler profiler;
  core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                 core::PipelineConfig{}, &store, &profiler);
  SessionManager manager(&pipeline);

  // Each feeder owns a disjoint set of objects (per-object feeds must
  // stay time-ordered) and drives them round-robin; feeders contend on
  // the manager's lock, the store, and the profiler.
  std::atomic<bool> failed{false};
  std::vector<std::thread> feeders;
  for (int f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      size_t longest = 0;
      for (int i = f; i < kObjects; i += kFeeders) {
        longest = std::max(longest, streams[i].size());
      }
      for (size_t k = 0; k < longest; ++k) {
        for (int i = f; i < kObjects; i += kFeeders) {
          if (k >= streams[i].size()) continue;
          auto fed = manager.Feed(i, streams[i][k]);
          if (!fed.ok() || !fed->accepted) failed.store(true);
        }
      }
    });
  }

  // Concurrent control plane: stats readers, idle eviction with a
  // threshold long enough to never fire, and flushes of a live object.
  std::atomic<bool> done{false};
  std::thread control([&] {
    common::Rng rng(7);
    while (!done.load()) {
      (void)manager.stats();
      (void)manager.ActiveSessions();
      auto evicted = manager.EvictIdle(3600.0);
      if (!evicted.ok()) failed.store(true);
      (void)manager.Flush(static_cast<core::ObjectId>(rng.UniformInt(0, 63)));
      std::this_thread::yield();
    }
  });

  for (std::thread& t : feeders) t.join();
  done.store(true);
  control.join();

  ASSERT_TRUE(manager.CloseAll().ok());
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(manager.ActiveSessions(), 0u);

  SessionManager::Stats stats = manager.stats();
  size_t total_points = 0;
  for (const auto& s : streams) total_points += s.size();
  EXPECT_EQ(stats.points_fed, total_points);
  EXPECT_EQ(stats.points_rejected, 0u);
  EXPECT_EQ(stats.sessions_opened, static_cast<size_t>(kObjects));
  EXPECT_GT(stats.episodes_closed, 0u);
  // Every object produced at least one stored trajectory, all written
  // through the shared (internally synchronized) store.
  EXPECT_GE(store.num_trajectories(), static_cast<size_t>(kObjects));
  EXPECT_GT(profiler.Count(kStreamStageFinalizeTrajectory), 0u);
}

TEST(StreamStressTest, ChurningSessionsUnderEviction) {
  // No semantic sources: exercises pure session lifecycle (create,
  // feed, evict, recreate) under contention without annotation cost.
  core::SemiTriPipeline pipeline(nullptr, nullptr, nullptr);
  SessionManagerConfig mc;
  mc.session.max_buffered_points = 64;
  SessionManager manager(&pipeline, mc);

  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Disjoint object ranges; clocks are per object so feeds stay
      // ordered even as sessions are evicted and recreated mid-stream.
      for (int round = 0; round < 40; ++round) {
        for (int o = 0; o < 6; ++o) {
          core::ObjectId id = w * 100 + o;
          double t = round * 100.0;
          for (int k = 0; k < 10; ++k) {
            core::GpsPoint fix{{o * 10.0 + k, w * 5.0}, t + k * 5.0};
            auto fed = manager.Feed(id, fix);
            if (!fed.ok()) failed.store(true);
          }
        }
        if (round % 8 == 3) {
          if (!manager.EvictIdle(0.0).ok()) failed.store(true);
        }
      }
    });
  }
  std::thread closer([&] {
    for (int i = 0; i < 50; ++i) {
      (void)manager.Close(static_cast<core::ObjectId>(i * 7 % 400));
      (void)manager.stats();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  closer.join();

  ASSERT_TRUE(manager.CloseAll().ok());
  EXPECT_FALSE(failed.load());
  SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.points_fed,
            static_cast<size_t>(kThreads) * 40u * 6u * 10u);
  EXPECT_GT(stats.sessions_evicted, 0u);
}

TEST(StreamStressTest, ContendedAdmissionWithShedOldestIdle) {
  // Overload machinery under contention: tight global budgets, so one
  // feeder's admissions shed other feeders' sessions while feeders,
  // idle eviction, closes and Health readers all run concurrently. TSan
  // checks the budget accounting and the least-recently-fed order; the
  // final invariants check that no charge leaks whatever interleaving
  // happened.
  core::SemiTriPipeline pipeline(nullptr, nullptr, nullptr);
  SessionManagerConfig mc;
  mc.admission.max_sessions = 6;
  mc.admission.max_buffered_fixes = 256;
  SessionManager manager(&pipeline, mc);

  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 30; ++round) {
        for (int o = 0; o < 8; ++o) {
          core::ObjectId id = w * 100 + o;
          double t = round * 100.0;
          for (int k = 0; k < 8; ++k) {
            core::GpsPoint fix{{o * 10.0 + k, w * 5.0}, t + k * 5.0};
            auto fed = manager.Feed(id, fix);
            if (fed.ok()) {
              accepted.fetch_add(1);
            } else if (fed.status().code() !=
                       common::StatusCode::kResourceExhausted) {
              // Feed rejects when no other session is left to shed; any
              // other error is a real bug.
              failed.store(true);
            }
          }
        }
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread control([&] {
    while (!done.load()) {
      if (!manager.EvictIdle(0.0).ok()) failed.store(true);
      (void)manager.Close(static_cast<core::ObjectId>(107));
      (void)manager.Health();
      (void)manager.stats();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  done.store(true);
  control.join();

  ASSERT_TRUE(manager.CloseAll().ok());
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(manager.ActiveSessions(), 0u);

  SessionManager::Stats stats = manager.stats();
  // The accounting balanced out: nothing left charged after every
  // session closed, and every accepted fix reached a session.
  EXPECT_EQ(stats.buffered_fixes, 0u);
  EXPECT_EQ(stats.points_fed, accepted.load());
  EXPECT_GT(stats.sessions_shed, 0u);
}

}  // namespace
}  // namespace semitri::stream
