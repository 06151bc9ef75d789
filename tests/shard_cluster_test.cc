// Sharded serving runtime tests. The headline contract: a cluster of
// shards — with objects live-migrating between them mid-stream, shards
// killed and restarted, rebalances, and injected migration faults —
// must leave a merged store ContentEquals to the uninterrupted
// single-process run of the same streams. Secondary contracts: ring
// placement is deterministic and membership changes move only the
// affected keys; at every migration abort point the session is
// recoverable on exactly one shard; WAL shipping keeps a standby
// rebuildable to the last shipped seal; the cluster health rollup
// reports dead shards.

#include "shard/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault_injection.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "shard/ring.h"
#include "shard/shard_runtime.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

namespace semitri::shard {
namespace {

namespace fs = std::filesystem;

// --- consistent-hash ring --------------------------------------------

TEST(ConsistentHashRingTest, PlacementIsDeterministicAndBalanced) {
  RingConfig config;
  ConsistentHashRing a(config);
  ConsistentHashRing b(config);
  for (ShardId s = 0; s < 4; ++s) {
    a.AddShard(s);
    b.AddShard(s);
  }
  std::map<ShardId, size_t> owned;
  for (core::ObjectId id = 0; id < 1000; ++id) {
    ShardId owner = a.ShardForObject(id);
    EXPECT_EQ(owner, b.ShardForObject(id)) << "object " << id;
    ++owned[owner];
  }
  // Virtual nodes keep the split rough but real: every shard owns a
  // non-trivial slice.
  ASSERT_EQ(owned.size(), 4u);
  for (const auto& [shard, count] : owned) {
    EXPECT_GT(count, 50u) << "shard " << shard << " starved";
    EXPECT_LT(count, 600u) << "shard " << shard << " hot";
  }
}

TEST(ConsistentHashRingTest, MembershipChangeMovesOnlyAffectedKeys) {
  ConsistentHashRing ring;
  for (ShardId s = 0; s < 4; ++s) ring.AddShard(s);
  std::map<core::ObjectId, ShardId> before;
  for (core::ObjectId id = 0; id < 1000; ++id) {
    before[id] = ring.ShardForObject(id);
  }
  ring.RemoveShard(2);
  size_t moved = 0;
  for (const auto& [id, owner] : before) {
    ShardId now = ring.ShardForObject(id);
    if (owner == 2) {
      EXPECT_NE(now, 2u);  // orphans must move...
    } else {
      EXPECT_EQ(now, owner) << "object " << id
                            << " moved although its shard stayed";
    }
    if (now != owner) ++moved;
  }
  // ...and nothing else does: the churn is exactly shard 2's share.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 500u);
  // Re-adding restores the original placement bit for bit.
  ring.AddShard(2);
  for (const auto& [id, owner] : before) {
    EXPECT_EQ(ring.ShardForObject(id), owner);
  }
}

TEST(ConsistentHashRingTest, SeedChangesPlacement) {
  RingConfig a_config;
  RingConfig b_config;
  b_config.seed = a_config.seed + 1;
  ConsistentHashRing a(a_config);
  ConsistentHashRing b(b_config);
  for (ShardId s = 0; s < 4; ++s) {
    a.AddShard(s);
    b.AddShard(s);
  }
  size_t differs = 0;
  for (core::ObjectId id = 0; id < 200; ++id) {
    if (a.ShardForObject(id) != b.ShardForObject(id)) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

// --- cluster fixture -------------------------------------------------

class ShardClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Reset();
    datagen::WorldConfig wc;
    wc.seed = 171;
    wc.extent_meters = 3000.0;
    wc.num_pois = 400;
    world_ = std::make_unique<datagen::World>(
        datagen::WorldGenerator(wc).Generate());
    factory_ = std::make_unique<datagen::DatasetFactory>(world_.get(), 172);
  }
  void TearDown() override {
    common::FaultInjector::Global().Reset();
    for (const std::string& dir : temp_dirs_) fs::remove_all(dir);
  }

  std::string TempDir(const std::string& name) {
    std::string dir = (fs::temp_directory_path() / name).string();
    fs::remove_all(dir);
    temp_dirs_.push_back(dir);
    return dir;
  }

  ShardClusterConfig ClusterConfig(const std::string& name,
                                   size_t num_shards) {
    ShardClusterConfig config;
    config.num_shards = num_shards;
    config.base_dir = TempDir(name);
    return config;
  }

  std::unique_ptr<ShardCluster> OpenCluster(const std::string& name,
                                            size_t num_shards) {
    auto cluster = ShardCluster::Open(&world_->regions, &world_->roads,
                                      &world_->pois,
                                      ClusterConfig(name, num_shards));
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return std::move(cluster.value());
  }

  // The uninterrupted single-process run the cluster must converge to:
  // one SessionManager over one store, identical streams, CloseAll.
  std::unique_ptr<store::SemanticTrajectoryStore> ReferenceStore(
      const datagen::Dataset& dataset) {
    auto store = std::make_unique<store::SemanticTrajectoryStore>();
    core::SemiTriPipeline pipeline(&world_->regions, &world_->roads,
                                   &world_->pois, core::PipelineConfig{},
                                   store.get());
    stream::SessionManager manager(&pipeline);
    for (const datagen::SimulatedTrack& track : dataset.tracks) {
      for (const core::GpsPoint& fix : track.points) {
        auto fed = manager.Feed(track.object_id, fix);
        EXPECT_TRUE(fed.ok()) << fed.status().ToString();
      }
    }
    EXPECT_TRUE(manager.CloseAll().ok());
    return store;
  }

  // Round-robin feed of every track's fixes with index in [from, to).
  void FeedRange(ShardCluster* cluster, const datagen::Dataset& dataset,
                 size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      for (const datagen::SimulatedTrack& track : dataset.tracks) {
        if (k >= track.points.size()) continue;
        auto fed = cluster->Feed(track.object_id, track.points[k]);
        ASSERT_TRUE(fed.ok()) << "object " << track.object_id << " fix " << k
                              << ": " << fed.status().ToString();
      }
    }
  }

  static size_t LongestTrack(const datagen::Dataset& dataset) {
    size_t longest = 0;
    for (const datagen::SimulatedTrack& t : dataset.tracks) {
      longest = std::max(longest, t.points.size());
    }
    return longest;
  }

  static size_t ShortestTrack(const datagen::Dataset& dataset) {
    size_t shortest = dataset.tracks.front().points.size();
    for (const datagen::SimulatedTrack& t : dataset.tracks) {
      shortest = std::min(shortest, t.points.size());
    }
    return shortest;
  }

  // Drives the cluster to a clean replication point: checkpoint (which
  // seals, ships, and replicates the manager sidecar), ship any
  // residue, then assert zero lag — a standby promoted after this ack
  // sits exactly at it, so re-fed prefixes are rejected per-fix.
  void AckAll(ShardCluster* cluster) {
    ASSERT_TRUE(cluster->CheckpointAll().ok());
    auto shipped = cluster->SealAndShipAll();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    for (size_t i = 0; i < cluster->num_shards(); ++i) {
      std::shared_ptr<ShardRuntime> runtime = cluster->runtime(i);
      if (runtime == nullptr) continue;
      EXPECT_EQ(runtime->ShardHealthInfo().wal_ship_lag_segments, 0u)
          << "shard " << i << " still lagging after the ack";
    }
  }

  // Two shards, probe every tick, dead after three consecutive
  // failures, automatic standby promotion.
  ShardClusterConfig SelfHealingConfig(const std::string& name) {
    ShardClusterConfig config = ClusterConfig(name, 2);
    config.detector.probe_interval_seconds = 0.0;
    config.detector.suspect_after = 1;
    config.detector.dead_after = 3;
    config.auto_failover = true;
    return config;
  }

  std::unique_ptr<ShardCluster> OpenWith(ShardClusterConfig config,
                                         const common::Clock* clock) {
    auto cluster = ShardCluster::Open(&world_->regions, &world_->roads,
                                      &world_->pois, std::move(config), clock);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return std::move(cluster.value());
  }

  void ExpectConverged(const ShardCluster& cluster,
                       const store::SemanticTrajectoryStore& reference,
                       const std::string& label) {
    store::SemanticTrajectoryStore merged;
    ASSERT_TRUE(cluster.MergeStores(&merged).ok()) << label;
    EXPECT_TRUE(merged.ContentEquals(reference))
        << label << ": merged cluster store diverged from the "
        << "uninterrupted single-process run";
  }

  std::unique_ptr<datagen::World> world_;
  std::unique_ptr<datagen::DatasetFactory> factory_;
  std::vector<std::string> temp_dirs_;
};

// --- live migration: the headline ------------------------------------

// Every preset, every object: pack mid-stream, hand off, resume on the
// destination, and the merged cluster state matches the uninterrupted
// run bit for bit.
TEST_F(ShardClusterFixture, LiveMigrationConvergesOnEveryPreset) {
  struct Case {
    std::string name;
    datagen::Dataset dataset;
  };
  std::vector<Case> cases;
  cases.push_back({"taxis", factory_->LausanneTaxis(2, 1, 2.0)});
  cases.push_back({"cars", factory_->MilanPrivateCars(3, 1)});
  cases.push_back({"drive", factory_->SeattleDrive(0.25)});
  cases.push_back({"people", factory_->NokiaPeople(2, 1)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto reference = ReferenceStore(c.dataset);
    auto cluster = OpenCluster("semitri_shard_migrate_" + c.name, 3);
    size_t longest = LongestTrack(c.dataset);
    FeedRange(cluster.get(), c.dataset, 0, longest / 2);
    // Migrate every object one shard over, mid-stream.
    for (const datagen::SimulatedTrack& track : c.dataset.tracks) {
      ShardId src = cluster->OwnerOf(track.object_id);
      ShardId dest = (src + 1) % cluster->num_shards();
      ASSERT_TRUE(cluster->MigrateObject(track.object_id, dest).ok());
      EXPECT_EQ(cluster->OwnerOf(track.object_id), dest);
      // Exactly one shard holds the live session, and it is the
      // destination.
      std::vector<ShardId> owners =
          cluster->LiveSessionShards(track.object_id);
      ASSERT_EQ(owners.size(), 1u);
      EXPECT_EQ(owners[0], dest);
    }
    EXPECT_GE(cluster->stats().migrations_completed, c.dataset.tracks.size());
    // The sessions resume on their new shards as if nothing happened.
    FeedRange(cluster.get(), c.dataset, longest / 2, longest);
    ASSERT_TRUE(cluster->CloseAll().ok());
    ExpectConverged(*cluster, *reference, c.name);
  }
}

// A second hop (and a hop back) keeps converging: ownership history
// longer than two entries merges in chronological order.
TEST_F(ShardClusterFixture, RepeatedMigrationConverges) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  auto cluster = OpenCluster("semitri_shard_remigrate", 3);
  size_t longest = LongestTrack(dataset);
  for (size_t leg = 0; leg < 3; ++leg) {
    FeedRange(cluster.get(), dataset, leg * longest / 3,
              (leg + 1) * longest / 3);
    for (const datagen::SimulatedTrack& track : dataset.tracks) {
      ShardId dest = (cluster->OwnerOf(track.object_id) + 1) % 3;
      ASSERT_TRUE(cluster->MigrateObject(track.object_id, dest).ok());
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "remigrate");
}

// Migrating an object the cluster has never fed is a pure routing flip.
TEST_F(ShardClusterFixture, MigratingUnknownObjectFlipsRoutingOnly) {
  auto cluster = OpenCluster("semitri_shard_unknown", 2);
  core::ObjectId object = 7;
  ShardId dest = (cluster->OwnerOf(object) + 1) % 2;
  ASSERT_TRUE(cluster->MigrateObject(object, dest).ok());
  EXPECT_EQ(cluster->OwnerOf(object), dest);
  EXPECT_TRUE(cluster->LiveSessionShards(object).empty());
}

// --- migration fault sites -------------------------------------------

// A fault at any migration site aborts the handoff with the session
// recoverable on exactly one shard, a later retry succeeds, and the
// run still converges.
TEST_F(ShardClusterFixture, MigrationFaultAtEverySiteAbortsCleanly) {
  const std::vector<std::string> sites = {"migration_pack",
                                          "migration_handoff",
                                          "migration_unpack"};
  for (const std::string& site : sites) {
    for (common::FaultAction action :
         {common::FaultAction::kFail, common::FaultAction::kCrash}) {
      SCOPED_TRACE(site + (action == common::FaultAction::kFail ? "/fail"
                                                                : "/crash"));
      common::FaultInjector& fi = common::FaultInjector::Global();
      fi.Reset();
      datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
      auto reference = ReferenceStore(dataset);
      auto cluster = OpenCluster("semitri_shard_fault", 2);
      size_t longest = LongestTrack(dataset);
      FeedRange(cluster.get(), dataset, 0, longest / 2);
      const datagen::SimulatedTrack& victim = dataset.tracks.front();
      ShardId src = cluster->OwnerOf(victim.object_id);
      ShardId dest = (src + 1) % 2;

      common::FaultPolicy policy;
      policy.action = action;
      fi.Arm(site, policy);
      EXPECT_FALSE(cluster->MigrateObject(victim.object_id, dest).ok());
      fi.Disarm(site);

      // Abort semantics: routing unchanged, live session on exactly
      // one shard — the source.
      EXPECT_EQ(cluster->OwnerOf(victim.object_id), src);
      std::vector<ShardId> owners =
          cluster->LiveSessionShards(victim.object_id);
      ASSERT_EQ(owners.size(), 1u) << "session lost or duplicated";
      EXPECT_EQ(owners[0], src);
      EXPECT_GE(cluster->stats().migrations_aborted, 1u);

      // The retry goes through...
      ASSERT_TRUE(cluster->MigrateObject(victim.object_id, dest).ok());
      EXPECT_EQ(cluster->OwnerOf(victim.object_id), dest);
      // ...and the interrupted-then-retried run still converges.
      FeedRange(cluster.get(), dataset, longest / 2, longest);
      ASSERT_TRUE(cluster->CloseAll().ok());
      ExpectConverged(*cluster, *reference, site);
    }
  }
}

// --- kill / restart --------------------------------------------------

// Killing a shard loses nothing acknowledged: after restart the driver
// re-feeds from the last checkpoint and the cluster converges to the
// uninterrupted run.
TEST_F(ShardClusterFixture, KillRestartRecoversToCheckpoint) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  auto cluster = OpenCluster("semitri_shard_kill", 2);
  size_t shortest = dataset.tracks.front().points.size();
  for (const datagen::SimulatedTrack& t : dataset.tracks) {
    shortest = std::min(shortest, t.points.size());
  }
  size_t acked = shortest / 2;
  size_t killed_at = shortest * 3 / 4;

  FeedRange(cluster.get(), dataset, 0, acked);
  ASSERT_TRUE(cluster->CheckpointAll().ok());  // the ack point
  FeedRange(cluster.get(), dataset, acked, killed_at);

  // Pick a victim shard that actually owns an object.
  ShardId victim = cluster->OwnerOf(dataset.tracks.front().object_id);
  ASSERT_TRUE(cluster->KillShard(victim).ok());

  // Feeds to the dead shard's objects are shed, visibly.
  size_t rejected = 0;
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    if (cluster->OwnerOf(track.object_id) != victim) continue;
    auto fed = cluster->Feed(track.object_id, track.points[killed_at]);
    EXPECT_FALSE(fed.ok());
    ++rejected;
  }
  ASSERT_GT(rejected, 0u);
  EXPECT_GE(cluster->stats().feeds_rejected_dead_shard, rejected);

  ASSERT_TRUE(cluster->RestartShard(victim).ok());
  // The restarted shard resumed from its checkpoint: re-feed its
  // objects from the ack point; everyone else continues uninterrupted.
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    size_t from = cluster->OwnerOf(track.object_id) == victim ? acked
                                                              : killed_at;
    for (size_t k = from; k < track.points.size(); ++k) {
      auto fed = cluster->Feed(track.object_id, track.points[k]);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  EXPECT_EQ(cluster->stats().shard_kills, 1u);
  EXPECT_EQ(cluster->stats().shard_restarts, 1u);
  ExpectConverged(*cluster, *reference, "kill/restart");
}

// --- WAL shipping ----------------------------------------------------

// A standby rebuilt purely from shipped sealed segments matches the
// primary as of the last shipped seal, and the lag gauges track what
// it would lose.
TEST_F(ShardClusterFixture, WalShippingKeepsStandbyRebuildable) {
  datagen::Dataset dataset = factory_->NokiaPeople(1, 1);
  auto cluster = OpenCluster("semitri_shard_ship", 1);
  FeedRange(cluster.get(), dataset, 0, LongestTrack(dataset));
  ASSERT_TRUE(cluster->CloseAll().ok());
  auto shipped = cluster->SealAndShipAll();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_GT(shipped->segments_shipped, 0u);
  EXPECT_GT(shipped->bytes_shipped, 0u);

  std::shared_ptr<ShardRuntime> runtime = cluster->runtime(0);
  ASSERT_NE(runtime, nullptr);

  // More writes, sealed but not shipped: the health rollup must show
  // the lag a failover would lose.
  auto existing = runtime->store()->ListTrajectories();
  ASSERT_FALSE(existing.empty());
  auto raw = runtime->store()->GetRawTrajectory(existing.front());
  ASSERT_TRUE(raw.ok());
  core::RawTrajectory extra = *raw;
  extra.id = existing.back() + 1;
  ASSERT_TRUE(runtime->store()->PutRawTrajectory(extra).ok());
  auto sealed = runtime->store()->SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  ASSERT_FALSE(sealed->empty());
  core::ShardHealth lagging = runtime->ShardHealthInfo();
  EXPECT_GT(lagging.wal_ship_lag_segments, 0u);
  EXPECT_GT(lagging.wal_ship_lag_bytes, 0u);

  auto shipped2 = cluster->SealAndShipAll();
  ASSERT_TRUE(shipped2.ok());
  EXPECT_EQ(runtime->ShardHealthInfo().wal_ship_lag_segments, 0u);

  // Rebuild from the standby directory alone.
  store::SemanticTrajectoryStore standby;
  auto recovered = standby.Recover(runtime->config().standby_dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(recovered->wal_segments_replayed, 0u);
  EXPECT_TRUE(standby.ContentEquals(*runtime->store()))
      << "standby diverged from the primary at the shipped seal";
}

// --- elasticity ------------------------------------------------------

TEST_F(ShardClusterFixture, AddAndRemoveShardRebalanceAndConverge) {
  datagen::Dataset dataset = factory_->MilanPrivateCars(4, 1);
  auto reference = ReferenceStore(dataset);
  auto cluster = OpenCluster("semitri_shard_elastic", 2);
  size_t longest = LongestTrack(dataset);
  FeedRange(cluster.get(), dataset, 0, longest / 3);

  auto added = cluster->AddShard();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(cluster->num_shards(), 3u);
  // After a rebalance the recorded placement agrees with the ring; a
  // second Rebalance is a no-op.
  auto again = cluster->Rebalance();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);

  FeedRange(cluster.get(), dataset, longest / 3, 2 * longest / 3);

  auto drained = cluster->RemoveShard(2);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    EXPECT_NE(cluster->OwnerOf(track.object_id), 2u);
  }

  FeedRange(cluster.get(), dataset, 2 * longest / 3, longest);
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "elastic");
}

// --- health rollup ---------------------------------------------------

TEST_F(ShardClusterFixture, HealthRollupReportsShardsAndDeaths) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto cluster = OpenCluster("semitri_shard_health", 2);
  FeedRange(cluster.get(), dataset, 0, LongestTrack(dataset) / 2);

  core::HealthSnapshot healthy = cluster->Health();
  ASSERT_EQ(healthy.shards.size(), 2u);
  size_t rolled_up = 0;
  for (const core::ShardHealth& s : healthy.shards) {
    EXPECT_TRUE(s.alive);
    rolled_up += s.live_sessions;
  }
  EXPECT_EQ(rolled_up, dataset.tracks.size());
  EXPECT_EQ(healthy.sessions.used, dataset.tracks.size());
  EXPECT_FALSE(healthy.degraded());
  // The rollup renders.
  EXPECT_NE(healthy.ToString().find("shard"), std::string::npos);

  ASSERT_TRUE(cluster->KillShard(0).ok());
  core::HealthSnapshot wounded = cluster->Health();
  ASSERT_EQ(wounded.shards.size(), 2u);
  EXPECT_FALSE(wounded.shards[0].alive);
  EXPECT_TRUE(wounded.shards[1].alive);
  EXPECT_TRUE(wounded.degraded());
  ASSERT_TRUE(cluster->CloseAll().ok());
}

// A re-opened cluster (same base_dir) recovers each shard's durable
// state: the manager checkpoint brings sessions back and the stores
// replay their WALs.
TEST_F(ShardClusterFixture, ReopenedClusterRecoversAllShards) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  ShardClusterConfig config = ClusterConfig("semitri_shard_reopen", 2);
  size_t longest = LongestTrack(dataset);
  {
    auto opened = ShardCluster::Open(&world_->regions, &world_->roads,
                                     &world_->pois, config);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<ShardCluster> first = std::move(opened.value());
    FeedRange(first.get(), dataset, 0, longest / 2);
    ASSERT_TRUE(first->CheckpointAll().ok());
    // The cluster is destroyed without CloseAll — an orderly shutdown
    // is not required for what was checkpointed.
  }
  auto reopened = ShardCluster::Open(&world_->regions, &world_->roads,
                                     &world_->pois, config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<ShardCluster> cluster = std::move(reopened.value());
  for (size_t i = 0; i < cluster->num_shards(); ++i) {
    std::shared_ptr<ShardRuntime> runtime = cluster->runtime(i);
    ASSERT_NE(runtime, nullptr);
    EXPECT_TRUE(runtime->manager_restored());
  }
  // NOTE: placement is re-derived from the ring on reopen — identical
  // because nothing was migrated off its ring placement here.
  FeedRange(cluster.get(), dataset, longest / 2, longest);
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "reopen");
}

// --- failure detection -----------------------------------------------

TEST(FailureDetectorTest, WalksSuspectToDeadAndMeasuresTimeToDetect) {
  common::FakeClock clock;
  FailureDetectorConfig config;
  config.probe_interval_seconds = 0.0;
  config.suspect_after = 1;
  config.dead_after = 3;
  FailureDetector detector(config, &clock);

  EXPECT_EQ(detector.StateOf(7), Liveness::kAlive);  // never probed
  EXPECT_EQ(detector.Observe(0, true), Liveness::kAlive);
  EXPECT_EQ(detector.Observe(0, false), Liveness::kSuspect);
  clock.Advance(0.25);
  EXPECT_EQ(detector.Observe(0, false), Liveness::kSuspect);
  clock.Advance(0.25);
  EXPECT_EQ(detector.Observe(0, false), Liveness::kDead);
  EXPECT_EQ(detector.deaths_declared(), 1u);

  FailureDetector::ShardObservation obs = detector.observation(0);
  EXPECT_EQ(obs.consecutive_failures, 3u);
  EXPECT_EQ(obs.deaths_declared, 1u);
  // First failed probe to declaration: the two 0.25 s advances.
  EXPECT_NEAR(obs.last_time_to_detect_seconds, 0.5, 1e-9);
}

TEST(FailureDetectorTest, SuccessResetsTheStreakBeforeDeath) {
  FailureDetectorConfig config;
  config.suspect_after = 1;
  config.dead_after = 3;
  FailureDetector detector(config);
  EXPECT_EQ(detector.Observe(0, false), Liveness::kSuspect);
  EXPECT_EQ(detector.Observe(0, false), Liveness::kSuspect);
  // A flap short of dead_after clears everything.
  EXPECT_EQ(detector.Observe(0, true), Liveness::kAlive);
  EXPECT_EQ(detector.observation(0).consecutive_failures, 0u);
  EXPECT_EQ(detector.Observe(0, false), Liveness::kSuspect);
  EXPECT_EQ(detector.deaths_declared(), 0u);
}

TEST(FailureDetectorTest, DeadIsStickyUntilForgotten) {
  FailureDetectorConfig config;
  config.suspect_after = 1;
  config.dead_after = 2;
  FailureDetector detector(config);
  EXPECT_EQ(detector.Observe(3, false), Liveness::kSuspect);
  EXPECT_EQ(detector.Observe(3, false), Liveness::kDead);
  // One good probe must not cancel a failover already in flight.
  EXPECT_EQ(detector.Observe(3, true), Liveness::kDead);
  EXPECT_EQ(detector.deaths_declared(), 1u);

  detector.Forget(3);
  EXPECT_EQ(detector.StateOf(3), Liveness::kAlive);
  EXPECT_EQ(detector.observation(3).consecutive_failures, 0u);
  // Lifetime counters survive the reset, and a fresh walk re-declares.
  EXPECT_EQ(detector.observation(3).deaths_declared, 1u);
  EXPECT_EQ(detector.Observe(3, false), Liveness::kSuspect);
  EXPECT_EQ(detector.Observe(3, false), Liveness::kDead);
  EXPECT_EQ(detector.deaths_declared(), 2u);
}

TEST(FailureDetectorTest, ProbePacingHonorsTheInterval) {
  common::FakeClock clock;
  FailureDetectorConfig config;
  config.probe_interval_seconds = 0.5;
  FailureDetector detector(config, &clock);

  EXPECT_TRUE(detector.ProbeDue(0));  // never probed: always due
  (void)detector.Observe(0, true);
  EXPECT_FALSE(detector.ProbeDue(0));
  clock.Advance(0.3);
  EXPECT_FALSE(detector.ProbeDue(0));
  clock.Advance(0.3);
  EXPECT_TRUE(detector.ProbeDue(0));
}

// --- failover ---------------------------------------------------------

// The headline self-healing contract: kill a shard, let the detector
// walk it to dead, and the automatic promotion brings the standby up
// at the last ack — after re-feeding from that ack the cluster still
// converges to the uninterrupted run.
TEST_F(ShardClusterFixture, FailoverPromotesStandbyAndConverges) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  common::FakeClock clock;
  auto cluster = OpenWith(SelfHealingConfig("semitri_shard_failover"), &clock);
  size_t shortest = ShortestTrack(dataset);
  size_t acked = shortest / 2;
  size_t killed_at = shortest * 3 / 4;

  FeedRange(cluster.get(), dataset, 0, acked);
  AckAll(cluster.get());
  // Unacked tail: everything past the ack is the replication lag a
  // promotion is allowed to lose.
  FeedRange(cluster.get(), dataset, acked, killed_at);

  ShardId victim = cluster->OwnerOf(dataset.tracks.front().object_id);
  ASSERT_TRUE(cluster->KillShard(victim).ok());

  // Three failed probes walk the slot through suspect to dead; the
  // declaring tick promotes in the same pass.
  auto tick1 = cluster->Tick();
  ASSERT_TRUE(tick1.ok()) << tick1.status().ToString();
  EXPECT_EQ(*tick1, 0u);
  EXPECT_EQ(cluster->ShardLiveness(victim), Liveness::kSuspect);
  clock.Advance(0.1);
  auto tick2 = cluster->Tick();
  ASSERT_TRUE(tick2.ok());
  EXPECT_EQ(*tick2, 0u);
  clock.Advance(0.1);
  auto tick3 = cluster->Tick();
  ASSERT_TRUE(tick3.ok());
  EXPECT_EQ(*tick3, 1u);
  // Forget() after promotion: the replacement starts with a clean
  // streak.
  EXPECT_EQ(cluster->ShardLiveness(victim), Liveness::kAlive);

  ShardCluster::Stats stats = cluster->stats();
  EXPECT_EQ(stats.failovers_completed, 1u);
  EXPECT_EQ(stats.detector_deaths_declared, 1u);
  ASSERT_EQ(stats.time_to_detect_seconds.size(), 1u);
  EXPECT_NEAR(stats.time_to_detect_seconds[0], 0.2, 1e-9);
  EXPECT_EQ(stats.time_to_failover_seconds.size(), 1u);

  // The promoted runtime restored the shipped manager checkpoint, and
  // routing is untouched: the same shard id serves.
  std::shared_ptr<ShardRuntime> promoted = cluster->runtime(victim);
  ASSERT_NE(promoted, nullptr);
  EXPECT_TRUE(promoted->manager_restored());
  EXPECT_EQ(cluster->OwnerOf(dataset.tracks.front().object_id), victim);
  std::vector<ShardId> owners =
      cluster->LiveSessionShards(dataset.tracks.front().object_id);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], victim);

  // Re-feed the victims from the ack (the restored sessions reject the
  // consumed prefix per-fix); survivors continue where they stopped.
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    size_t from =
        cluster->OwnerOf(track.object_id) == victim ? acked : killed_at;
    for (size_t k = from; k < track.points.size(); ++k) {
      auto fed = cluster->Feed(track.object_id, track.points[k]);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "failover");
}

TEST_F(ShardClusterFixture, FailoverWithoutStandbyIsFailedPrecondition) {
  ShardClusterConfig config = ClusterConfig("semitri_shard_nostandby", 2);
  config.ship_wal = false;
  auto cluster = OpenWith(std::move(config), nullptr);
  common::Status status = cluster->FailoverShard(0);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  // The precondition is checked before the fence: the live runtime
  // survives the refused promotion.
  EXPECT_NE(cluster->runtime(0), nullptr);
  EXPECT_EQ(cluster->stats().shards_fenced, 0u);
  ASSERT_TRUE(cluster->CloseAll().ok());
}

// One annotation model per cluster: the initial shards, an added shard,
// a restarted shard and a promoted standby all annotate through the
// model Open() built, and it holds every layer.
TEST_F(ShardClusterFixture, EveryShardRunsTheClusterModel) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto cluster = OpenCluster("semitri_shard_one_model", 2);
  std::shared_ptr<const core::AnnotationModel> model =
      cluster->runtime(0)->pipeline().model();
  ASSERT_NE(model, nullptr);
  EXPECT_NE(model->region_annotator(), nullptr);
  EXPECT_NE(model->line_annotator(), nullptr);
  EXPECT_NE(model->point_annotator(), nullptr);
  // Holders: this test, the cluster, and the pipeline of each live
  // shard.
  auto expect_shared = [&](const std::string& step) {
    long live = 0;
    for (ShardId s = 0; s < cluster->num_shards(); ++s) {
      std::shared_ptr<ShardRuntime> runtime = cluster->runtime(s);
      if (runtime == nullptr) continue;
      ++live;
      EXPECT_EQ(runtime->pipeline().model(), model)
          << step << ": shard " << s;
    }
    EXPECT_EQ(model.use_count(), 2 + live) << step;
  };
  expect_shared("open");

  FeedRange(cluster.get(), dataset, 0, ShortestTrack(dataset) / 2);
  AckAll(cluster.get());
  ASSERT_TRUE(cluster->AddShard().ok());
  expect_shared("add");
  ASSERT_TRUE(cluster->KillShard(1).ok());
  expect_shared("kill");
  ASSERT_TRUE(cluster->RestartShard(1).ok());
  expect_shared("restart");
  ASSERT_TRUE(cluster->KillShard(0).ok());
  ASSERT_TRUE(cluster->FailoverShard(0).ok());
  EXPECT_EQ(cluster->stats().failovers_completed, 1u);
  expect_shared("failover");
  ASSERT_TRUE(cluster->CloseAll().ok());
}

// --- retrying data plane ---------------------------------------------

// A single retrying Feed to a dead shard rides out the whole detect ->
// declare -> promote -> recover arc: each backoff ticks the detector,
// so the waiting feed is what drives its own healing.
TEST_F(ShardClusterFixture, RetryingFeedRidesOutAutoFailover) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  common::FakeClock clock;
  ShardClusterConfig config = SelfHealingConfig("semitri_shard_retryfeed");
  config.retry_feeds = true;
  config.feed_retry.max_attempts = 8;
  config.feed_retry.initial_backoff_seconds = 0.001;
  config.feed_retry.jitter_fraction = 0.0;
  auto cluster = OpenWith(std::move(config), &clock);
  size_t acked = ShortestTrack(dataset) / 2;

  FeedRange(cluster.get(), dataset, 0, acked);
  AckAll(cluster.get());
  const datagen::SimulatedTrack& victim_track = dataset.tracks.front();
  ShardId victim = cluster->OwnerOf(victim_track.object_id);
  ASSERT_TRUE(cluster->KillShard(victim).ok());

  // No manual Tick(): the feed's own backoffs advance detection until
  // the promotion lands, then the next attempt succeeds.
  auto fed = cluster->Feed(victim_track.object_id, victim_track.points[acked]);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  EXPECT_TRUE(fed->accepted) << "first fix past the ack must be fresh";

  ShardCluster::Stats stats = cluster->stats();
  EXPECT_EQ(stats.failovers_completed, 1u);
  EXPECT_GE(stats.feeds_retried, 1u);
  EXPECT_GE(stats.feeds_recovered, 1u);
  // Every failed attempt counted: three probes' worth before death.
  EXPECT_GE(stats.feeds_rejected_dead_shard, 3u);

  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    size_t from =
        track.object_id == victim_track.object_id ? acked + 1 : acked;
    for (size_t k = from; k < track.points.size(); ++k) {
      auto rest = cluster->Feed(track.object_id, track.points[k]);
      ASSERT_TRUE(rest.ok()) << rest.status().ToString();
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "retrying feed");
}

// TSan target: concurrent feeds during a kill-plus-auto-failover either
// retry to success or fail cleanly — no feed ever touches a dead
// runtime, and the merged state still converges.
TEST_F(ShardClusterFixture, ConcurrentFeedsSurviveKillAndAutoFailover) {
  datagen::Dataset dataset = factory_->MilanPrivateCars(3, 1);
  auto reference = ReferenceStore(dataset);
  common::FakeClock clock;
  ShardClusterConfig config = SelfHealingConfig("semitri_shard_feedrace");
  config.retry_feeds = true;
  config.feed_retry.max_attempts = 10;
  config.feed_retry.initial_backoff_seconds = 0.001;
  auto cluster = OpenWith(std::move(config), &clock);
  size_t acked = ShortestTrack(dataset) / 2;

  FeedRange(cluster.get(), dataset, 0, acked);
  AckAll(cluster.get());
  ShardId victim = cluster->OwnerOf(dataset.tracks.front().object_id);
  // Kill before the feeders start: a feed acknowledged past the ack
  // and then lost would otherwise let a later fix slip in after a gap,
  // which restored sessions accept (divergent segmentation).
  ASSERT_TRUE(cluster->KillShard(victim).ok());

  // One feeder per object streams the remainder in order. Feeders
  // whose object sits on the dead shard block inside the retry loop —
  // and their backoff ticks are exactly what detects the death and
  // promotes the standby, while the other feeders stream on.
  std::vector<std::thread> feeders;
  feeders.reserve(dataset.tracks.size());
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    feeders.emplace_back([&cluster, &track, acked]() {
      for (size_t k = acked; k < track.points.size(); ++k) {
        auto fed = cluster->Feed(track.object_id, track.points[k]);
        EXPECT_TRUE(fed.ok()) << "object " << track.object_id << " fix " << k
                              << ": " << fed.status().ToString();
        if (!fed.ok()) return;
      }
    });
  }
  for (std::thread& feeder : feeders) feeder.join();

  ShardCluster::Stats stats = cluster->stats();
  EXPECT_EQ(stats.failovers_completed, 1u);
  EXPECT_GE(stats.feeds_recovered, 1u);
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "concurrent feeds over failover");
}

// --- standby corruption ----------------------------------------------

// Same-name-same-size is not proof of a good copy: a corrupted standby
// segment must fail the CRC frame scan of a freshly opened shipper and
// be shipped again.
TEST_F(ShardClusterFixture, CorruptStandbySegmentIsReshippedAfterReopen) {
  datagen::Dataset dataset = factory_->NokiaPeople(1, 1);
  auto cluster = OpenCluster("semitri_shard_corrupt", 1);
  FeedRange(cluster.get(), dataset, 0, LongestTrack(dataset));
  ASSERT_TRUE(cluster->CloseAll().ok());
  auto shipped = cluster->SealAndShipAll();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  ASSERT_GT(shipped->segments_shipped, 0u);
  EXPECT_EQ(shipped->reshipped_corrupt_segments, 0u);

  // Flip one byte in the middle of a shipped standby segment — the
  // size (and name) stay identical, so a metadata-only skip check
  // would accept the corrupt copy forever.
  std::string standby = cluster->runtime(0)->config().standby_dir;
  std::string segment;
  for (const auto& entry : fs::directory_iterator(standby)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) {
      segment = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(segment.empty()) << "no shipped segment under " << standby;
  const auto original_size = fs::file_size(segment);
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(original_size / 2));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(original_size / 2));
    file.put(static_cast<char>(byte ^ 0x5a));
  }
  ASSERT_EQ(fs::file_size(segment), original_size);

  // Kill/restart gives the shard a fresh shipper whose verified-names
  // cache is empty — the next ship re-scans every standby segment.
  ASSERT_TRUE(cluster->KillShard(0).ok());
  ASSERT_TRUE(cluster->RestartShard(0).ok());
  std::shared_ptr<ShardRuntime> runtime = cluster->runtime(0);
  ASSERT_NE(runtime, nullptr);

  // New writes so the re-ship pass has fresh work alongside the repair.
  auto existing = runtime->store()->ListTrajectories();
  ASSERT_FALSE(existing.empty());
  auto raw = runtime->store()->GetRawTrajectory(existing.front());
  ASSERT_TRUE(raw.ok());
  core::RawTrajectory extra = *raw;
  extra.id = existing.back() + 1;
  ASSERT_TRUE(runtime->store()->PutRawTrajectory(extra).ok());

  auto reshipped = cluster->SealAndShipAll();
  ASSERT_TRUE(reshipped.ok()) << reshipped.status().ToString();
  EXPECT_GE(reshipped->reshipped_corrupt_segments, 1u);
  ASSERT_NE(runtime->shipper(), nullptr);
  EXPECT_GE(runtime->shipper()->total_reshipped_corrupt(), 1u);

  // The healed standby rebuilds to the primary's state.
  store::SemanticTrajectoryStore standby_store;
  auto recovered = standby_store.Recover(standby);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(standby_store.ContentEquals(*runtime->store()))
      << "standby diverged after the corrupt segment was re-shipped";
}

// --- failover fault sites --------------------------------------------

// A fault at failover_promote lands after the fence: the shard stays
// down with both directories intact, and the retried failover heals it.
TEST_F(ShardClusterFixture, FailoverPromoteFaultAbortsCleanlyAndRetries) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  auto cluster = OpenCluster("semitri_shard_failover_fault", 2);
  size_t acked = ShortestTrack(dataset) / 2;
  FeedRange(cluster.get(), dataset, 0, acked);
  AckAll(cluster.get());
  ShardId victim = cluster->OwnerOf(dataset.tracks.front().object_id);
  ASSERT_TRUE(cluster->KillShard(victim).ok());

  common::FaultInjector& fi = common::FaultInjector::Global();
  fi.Arm("failover_promote", common::FaultPolicy::FailOnce());
  EXPECT_FALSE(cluster->FailoverShard(victim).ok());
  fi.Disarm("failover_promote");
  EXPECT_GE(cluster->stats().failovers_aborted, 1u);
  EXPECT_EQ(cluster->runtime(victim), nullptr) << "half-promoted runtime";

  // Both directories are untouched, so the retry promotes cleanly.
  ASSERT_TRUE(cluster->FailoverShard(victim).ok());
  EXPECT_EQ(cluster->stats().failovers_completed, 1u);
  ASSERT_NE(cluster->runtime(victim), nullptr);

  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    for (size_t k = acked; k < track.points.size(); ++k) {
      auto fed = cluster->Feed(track.object_id, track.points[k]);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "failover_promote fault");
}

// A detector driven to a false positive (probes of healthy shards made
// to fail) must fence the live runtime before promoting — one writer
// per placement, exactly one live session owner, and convergence from
// the ack afterwards.
TEST_F(ShardClusterFixture, FalsePositiveDetectionFencesLiveRuntimes) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  common::FakeClock clock;
  auto cluster = OpenWith(SelfHealingConfig("semitri_shard_falsepos"), &clock);
  size_t acked = ShortestTrack(dataset) / 2;
  FeedRange(cluster.get(), dataset, 0, acked);
  AckAll(cluster.get());

  common::FaultInjector& fi = common::FaultInjector::Global();
  fi.Arm("detector_probe", common::FaultPolicy::FailAlways());
  size_t failovers = 0;
  for (int i = 0; i < 3; ++i) {
    auto ticked = cluster->Tick();
    ASSERT_TRUE(ticked.ok()) << ticked.status().ToString();
    failovers += *ticked;
    clock.Advance(0.05);
  }
  fi.Disarm("detector_probe");

  // Every (healthy) shard was declared dead and promoted; each
  // promotion dropped a live runtime behind the fence.
  EXPECT_EQ(failovers, 2u);
  ShardCluster::Stats stats = cluster->stats();
  EXPECT_EQ(stats.failovers_completed, 2u);
  EXPECT_EQ(stats.shards_fenced, 2u);
  EXPECT_EQ(stats.detector_deaths_declared, 2u);
  for (size_t i = 0; i < cluster->num_shards(); ++i) {
    std::shared_ptr<ShardRuntime> runtime = cluster->runtime(i);
    ASSERT_NE(runtime, nullptr);
    EXPECT_TRUE(runtime->manager_restored());
  }
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    EXPECT_EQ(cluster->LiveSessionShards(track.object_id).size(), 1u)
        << "object " << track.object_id;
  }

  // All promoted standbys sit at the ack: re-feed everyone from there.
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    for (size_t k = acked; k < track.points.size(); ++k) {
      auto fed = cluster->Feed(track.object_id, track.points[k]);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "false-positive failover");
}

// Failover racing an aborted in-flight migration: after a handoff
// fault rolls the session back to the source and the source then dies
// and fails over, exactly one shard holds the recoverable session.
TEST_F(ShardClusterFixture, FailoverAfterAbortedHandoffLeavesOneOwner) {
  datagen::Dataset dataset = factory_->NokiaPeople(2, 1);
  auto reference = ReferenceStore(dataset);
  auto cluster = OpenCluster("semitri_shard_handoff_failover", 2);
  size_t acked = ShortestTrack(dataset) / 2;
  FeedRange(cluster.get(), dataset, 0, acked);
  AckAll(cluster.get());

  const datagen::SimulatedTrack& victim = dataset.tracks.front();
  ShardId src = cluster->OwnerOf(victim.object_id);
  ShardId dest = (src + 1) % 2;
  common::FaultInjector& fi = common::FaultInjector::Global();
  fi.Arm("migration_handoff", common::FaultPolicy::FailOnce());
  EXPECT_FALSE(cluster->MigrateObject(victim.object_id, dest).ok());
  fi.Disarm("migration_handoff");
  std::vector<ShardId> owners = cluster->LiveSessionShards(victim.object_id);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], src);

  // The rolled-back source dies and its standby is promoted: the
  // restored session (from the pre-migration ack) is the one owner.
  ASSERT_TRUE(cluster->KillShard(src).ok());
  ASSERT_TRUE(cluster->FailoverShard(src).ok());
  owners = cluster->LiveSessionShards(victim.object_id);
  ASSERT_EQ(owners.size(), 1u) << "session lost or duplicated";
  EXPECT_EQ(owners[0], src);

  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    for (size_t k = acked; k < track.points.size(); ++k) {
      auto fed = cluster->Feed(track.object_id, track.points[k]);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "failover after aborted handoff");
}

// --- upkeep fan-out --------------------------------------------------

// SealAndShipAll runs one task per shard: a ship failure on one shard
// no longer leaves the shards after it unsealed. Which shard takes the
// one-shot fault depends on scheduling, so the test only counts.
TEST_F(ShardClusterFixture, SealAndShipAllShipsEveryShardPastAFailure) {
  datagen::Dataset dataset = factory_->MilanPrivateCars(12, 1);
  auto cluster = OpenCluster("semitri_shard_fanout_ship", 3);
  std::set<ShardId> owners;
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    owners.insert(cluster->OwnerOf(track.object_id));
  }
  ASSERT_EQ(owners.size(), 3u) << "every shard must be fed";
  FeedRange(cluster.get(), dataset, 0, LongestTrack(dataset));
  ASSERT_TRUE(cluster->CloseAll().ok());

  common::FaultInjector::Global().Arm("wal_ship",
                                      common::FaultPolicy::FailOnce());
  EXPECT_FALSE(cluster->SealAndShipAll().ok());

  size_t lagging = 0;
  for (ShardId s = 0; s < 3; ++s) {
    std::shared_ptr<ShardRuntime> runtime = cluster->runtime(s);
    ASSERT_NE(runtime, nullptr);
    if (runtime->ShardHealthInfo().wal_ship_lag_segments > 0) {
      ++lagging;
      continue;
    }
    // Every other shard sealed its active WAL...
    const std::string& durable = runtime->config().durable_dir;
    const std::string& standby = runtime->config().standby_dir;
    EXPECT_EQ(fs::file_size(durable + "/wal.log"), 0u) << "shard " << s;
    // ...and its standby holds the sealed segment.
    std::vector<std::string> sealed =
        store::SemanticTrajectoryStore::ListSealedWalSegments(durable);
    ASSERT_EQ(sealed.size(), 1u) << "shard " << s;
    ASSERT_TRUE(fs::exists(standby + "/" + sealed.front())) << "shard " << s;
    EXPECT_EQ(fs::file_size(standby + "/" + sealed.front()),
              fs::file_size(durable + "/" + sealed.front()))
        << "shard " << s;
  }
  EXPECT_EQ(lagging, 1u);
}

// TSan target: four feeder threads, each owning its own objects, stream
// into a 4-shard cluster while the main thread runs the fanned-out
// upkeep calls back to back. Nothing is killed, so the merge must equal
// the single-manager run. About 18k fixes, so that many upkeep rounds
// overlap the feeds.
TEST_F(ShardClusterFixture, UpkeepFanOutRunsAlongsideConcurrentFeeds) {
  datagen::Dataset dataset = factory_->MilanPrivateCars(48, 7);
  auto reference = ReferenceStore(dataset);
  auto cluster = OpenCluster("semitri_shard_fanout_stress", 4);

  constexpr size_t kFeeders = 4;
  std::atomic<size_t> feeding{kFeeders};
  std::atomic<size_t> fed_fixes{0};
  std::vector<std::thread> feeders;
  feeders.reserve(kFeeders);
  for (size_t f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&cluster, &dataset, &feeding, &fed_fixes, f]() {
      for (size_t t = f; t < dataset.tracks.size(); t += kFeeders) {
        const datagen::SimulatedTrack& track = dataset.tracks[t];
        for (const core::GpsPoint& fix : track.points) {
          auto fed = cluster->Feed(track.object_id, fix);
          EXPECT_TRUE(fed.ok()) << "object " << track.object_id << ": "
                                << fed.status().ToString();
          if (!fed.ok()) break;
          ++fed_fixes;
        }
      }
      --feeding;
    });
  }
  // The routing lock is not fair: a loop that re-takes it at once can
  // starve the feeders, so each round waits for a few hundred feeds.
  constexpr size_t kFixesPerRound = 400;
  size_t rounds = 0;
  while (feeding.load() > 0 || rounds < 3) {
    auto ticked = cluster->Tick();
    EXPECT_TRUE(ticked.ok()) << ticked.status().ToString();
    common::Status acked = cluster->CheckpointAll();
    EXPECT_TRUE(acked.ok()) << acked.ToString();
    auto shipped = cluster->SealAndShipAll();
    EXPECT_TRUE(shipped.ok()) << shipped.status().ToString();
    ++rounds;
    const size_t next = fed_fixes.load() + kFixesPerRound;
    while (feeding.load() > 0 && fed_fixes.load() < next) {
      std::this_thread::yield();
    }
  }
  for (std::thread& feeder : feeders) feeder.join();
  ASSERT_TRUE(cluster->CloseAll().ok());
  ExpectConverged(*cluster, *reference, "upkeep fan-out beside feeds");
}

}  // namespace
}  // namespace semitri::shard
