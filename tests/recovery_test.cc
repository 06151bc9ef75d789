// Crash-recovery and graceful-degradation harness.
//
// The durability contract under test: after a crash at *any* fault site
// — WAL append, WAL sync, checkpoint compaction, stage execution —
// re-opening the durable directory with
// SemanticTrajectoryStore::Recover and re-running the workload leaves
// the store ContentEquals-identical to a run that never crashed. The
// harness discovers every registered fault site dynamically (sites
// self-register on first fire), so a new SEMITRI_FAULT_FIRE site added
// anywhere in the write path is covered automatically.
//
// Beside the kill-at-every-site harnesses run plain durable
// round-trips, torn-tail truncation and degradation with a missing
// source. The fixture's SetUp Reset()s the injector, which engages the
// sites for the whole test (common/fault_injection.h).

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/fault_sites.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "shard/cluster.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

namespace semitri {
namespace {

namespace fs = std::filesystem;

class RecoveryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Reset();
    datagen::WorldConfig wc;
    wc.seed = 91;
    wc.extent_meters = 3000.0;
    wc.num_pois = 400;
    world_ = std::make_unique<datagen::World>(
        datagen::WorldGenerator(wc).Generate());
    datagen::DatasetFactory factory(world_.get(), 92);
    dataset_ = factory.NokiaPeople(/*users=*/2, /*days=*/1);
  }
  void TearDown() override { common::FaultInjector::Global().Reset(); }

  std::string TempDir(const std::string& name) {
    std::string dir = (fs::temp_directory_path() / name).string();
    fs::remove_all(dir);
    return dir;
  }

  // The offline annotation workload: every track through ProcessStream,
  // a checkpoint compaction between tracks (so the wal_checkpoint site
  // fires mid-workload), a Sync at the end. Returns the first error —
  // under crash injection, the simulated moment of death.
  common::Status RunOfflineWorkload(store::SemanticTrajectoryStore* store) {
    core::SemiTriPipeline pipeline(Model(), store);
    bool checkpointed = false;
    for (const datagen::SimulatedTrack& track : dataset_.tracks) {
      auto results = pipeline.ProcessStream(
          track.object_id, track.points,
          static_cast<core::TrajectoryId>(track.object_id) * 1000);
      if (!results.ok()) return results.status();
      if (!checkpointed) {
        checkpointed = true;
        SEMITRI_RETURN_IF_ERROR(store->Checkpoint());
      }
    }
    return store->Sync();
  }

  // The same tracks through the streaming subsystem, round-robin across
  // objects starting at fix index `start`, with a manager checkpoint +
  // store sync every `checkpoint_every` feeds. `*checkpointed_at` tracks
  // the feed index the latest durable manager checkpoint corresponds
  // to. First error = moment of death.
  common::Status RunStreamingWorkload(stream::SessionManager* manager,
                                      store::SemanticTrajectoryStore* store,
                                      const std::string& manager_ckpt,
                                      size_t start, size_t checkpoint_every,
                                      size_t* checkpointed_at) {
    size_t longest = 0;
    for (const datagen::SimulatedTrack& t : dataset_.tracks) {
      longest = std::max(longest, t.points.size());
    }
    size_t index = 0;
    for (size_t k = 0; k < longest; ++k) {
      for (const datagen::SimulatedTrack& track : dataset_.tracks) {
        if (k >= track.points.size()) continue;
        if (index >= start) {
          auto fed = manager->Feed(track.object_id, track.points[k]);
          if (!fed.ok()) return fed.status();
          if (checkpoint_every > 0 && (index + 1) % checkpoint_every == 0) {
            SEMITRI_RETURN_IF_ERROR(manager->Checkpoint(manager_ckpt));
            SEMITRI_RETURN_IF_ERROR(store->Sync());
            if (checkpointed_at != nullptr) *checkpointed_at = index + 1;
          }
        }
        ++index;
      }
    }
    SEMITRI_RETURN_IF_ERROR(manager->CloseAll());
    return store->Sync();
  }

  // Clean in-memory reference the durable/recovered stores must match.
  void MakeOfflineReference(store::SemanticTrajectoryStore* reference) {
    ASSERT_TRUE(RunOfflineWorkload(reference).ok());
  }

  // The model every default-config pipeline of a test shares, built on
  // first use so that tests without a pipeline skip the build.
  const std::shared_ptr<const core::AnnotationModel>& Model() {
    if (model_ == nullptr) {
      model_ = core::AnnotationModel::Build(&world_->regions, &world_->roads,
                                            &world_->pois);
    }
    return model_;
  }

  std::unique_ptr<datagen::World> world_;
  datagen::Dataset dataset_;
  std::shared_ptr<const core::AnnotationModel> model_;
};

TEST_F(RecoveryFixture, DurableRunRecoversBitIdentical) {
  std::string dir = TempDir("semitri_recover_basic");
  store::SemanticTrajectoryStore reference;
  MakeOfflineReference(&reference);
  {
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore durable(config);
    ASSERT_TRUE(RunOfflineWorkload(&durable).ok());
    ASSERT_TRUE(durable.ContentEquals(reference));
  }  // store destroyed without further checkpoint: WAL holds the tail
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->checkpoint_loaded);       // mid-workload checkpoint
  EXPECT_GT(stats->wal_records_replayed, 0u);  // puts after it
  EXPECT_EQ(stats->wal_torn_bytes_truncated, 0u);
  EXPECT_TRUE(recovered.ContentEquals(reference));
  fs::remove_all(dir);
}

TEST_F(RecoveryFixture, CheckpointCompactsWalCompletely) {
  std::string dir = TempDir("semitri_recover_compact");
  store::SemanticTrajectoryStore reference;
  MakeOfflineReference(&reference);
  {
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore durable(config);
    ASSERT_TRUE(RunOfflineWorkload(&durable).ok());
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 0u);
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->checkpoint_loaded);
  EXPECT_EQ(stats->wal_records_replayed, 0u);
  EXPECT_TRUE(recovered.ContentEquals(reference));
  // Recovery leaves the store appendable: more writes + a second
  // recovery still match a reference that saw the same extra write.
  core::RawTrajectory extra;
  extra.id = 999999;
  extra.object_id = 7;
  extra.points.push_back({{1.0, 2.0}, 3.0});
  extra.points.push_back({{4.0, 5.0}, 6.0});
  ASSERT_TRUE(recovered.PutRawTrajectory(extra).ok());
  ASSERT_TRUE(recovered.Sync().ok());
  ASSERT_TRUE(reference.PutRawTrajectory(extra).ok());
  store::SemanticTrajectoryStore again;
  ASSERT_TRUE(again.Recover(dir).ok());
  EXPECT_TRUE(again.ContentEquals(reference));
  fs::remove_all(dir);
}

TEST_F(RecoveryFixture, RecoverTruncatesGarbageWalTail) {
  std::string dir = TempDir("semitri_recover_torn");
  store::SemanticTrajectoryStore reference;
  MakeOfflineReference(&reference);
  {
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore durable(config);
    ASSERT_TRUE(RunOfflineWorkload(&durable).ok());
  }
  {
    // A power cut mid-append: garbage bytes after the last intact frame.
    std::ofstream wal(dir + "/wal.log",
                      std::ios::binary | std::ios::app);
    wal << "\x13\x00\x00\x00torn-frame";
  }
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->wal_torn_bytes_truncated, 0u);
  EXPECT_TRUE(recovered.ContentEquals(reference));
  fs::remove_all(dir);
}

TEST_F(RecoveryFixture, MissingSourceDegradesWithoutInjection) {
  // The paper's partial-annotation contract, no faults needed: a
  // pipeline with no POI repository still produces region+line layers.
  core::SemiTriPipeline pipeline(&world_->regions, &world_->roads,
                                 /*pois=*/nullptr);
  const datagen::SimulatedTrack& track = dataset_.tracks.front();
  auto results = pipeline.ProcessStream(track.object_id, track.points, 0);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const core::PipelineResult& r : *results) {
    EXPECT_TRUE(r.region_layer.has_value());
    EXPECT_TRUE(r.line_layer.has_value());
    EXPECT_FALSE(r.point_layer.has_value());
  }
}

// ---------------------------------------------------------------------
// Fault-injected harnesses.
// ---------------------------------------------------------------------

TEST_F(RecoveryFixture, CrashAtEverySiteOfflineRecovers) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  store::SemanticTrajectoryStore reference;
  MakeOfflineReference(&reference);

  // Discovery: the same durable workload, engaged but unarmed, to
  // register every site it crosses and count hits per site.
  {
    std::string dir = TempDir("semitri_crash_discover");
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore durable(config);
    ASSERT_TRUE(RunOfflineWorkload(&durable).ok());
    fs::remove_all(dir);
  }
  std::vector<std::string> sites = fi.Sites();
  ASSERT_FALSE(sites.empty());
  // The headline write-path sites must all have registered.
  for (const char* expected :
       {"wal_append", "wal_sync", "wal_checkpoint"}) {
    EXPECT_TRUE(std::find(sites.begin(), sites.end(), expected) !=
                sites.end())
        << "site never fired: " << expected;
  }
  // Every runtime-discovered site must match the checked-in registry
  // (common/fault_sites.h): semitri_lint verifies the registry against
  // the SEMITRI_FAULT_FIRE call sites statically, and this assert
  // closes the loop at runtime — a site that self-registers without a
  // registry entry fails here, so registration implies the
  // kill-at-site sweep below actually covers it.
  for (const std::string& site : sites) {
    bool registered = false;
    for (const common::FaultSiteInfo& info : common::kFaultSites) {
      if (common::FaultSiteMatches(info, site.c_str())) {
        registered = true;
        break;
      }
    }
    EXPECT_TRUE(registered)
        << "fault site `" << site
        << "` is not in common/fault_sites.h — register it so the "
           "crash sweep and semitri_lint both know about it";
  }

  for (const std::string& site : sites) {
    uint64_t hits = fi.HitCount(site);
    if (hits == 0) continue;  // registered by another test path
    // Kill at the first hit and somewhere in the middle of the run.
    std::vector<uint64_t> kill_points = {1};
    if (hits / 2 > 1) kill_points.push_back(hits / 2);
    for (uint64_t n : kill_points) {
      SCOPED_TRACE(site + " crash at hit " + std::to_string(n));
      std::string dir =
          TempDir("semitri_crash_" + std::to_string(std::hash<std::string>{}(
                                         site + std::to_string(n))));
      fi.Reset();
      fi.Arm(site, common::FaultPolicy::CrashNth(n));
      {
        store::StoreConfig config;
        config.durable_dir = dir;
        store::SemanticTrajectoryStore durable(config);
        common::Status died = RunOfflineWorkload(&durable);
        EXPECT_FALSE(died.ok()) << "crash policy never fired";
      }  // process "dies" here
      fi.Reset();  // the rebooted process has no armed faults
      store::SemanticTrajectoryStore recovered;
      auto stats = recovered.Recover(dir);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      // Re-run the workload on the recovered store: every Put is a
      // keyed overwrite, so replaying from the start converges.
      ASSERT_TRUE(RunOfflineWorkload(&recovered).ok());
      EXPECT_TRUE(recovered.ContentEquals(reference))
          << "store diverged after crash at " << site << " hit " << n;
      fs::remove_all(dir);
    }
  }
}

TEST_F(RecoveryFixture, CrashAtEverySiteStreamingRecovers) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  constexpr size_t kCheckpointEvery = 200;

  // Clean streaming reference (in-memory store, same feed order).
  store::SemanticTrajectoryStore reference;
  {
    core::SemiTriPipeline pipeline(Model(), &reference);
    stream::SessionManager manager(&pipeline);
    ASSERT_TRUE(RunStreamingWorkload(&manager, &reference, "", 0,
                                     /*checkpoint_every=*/0, nullptr)
                    .ok());
  }

  // Discovery pass over the durable streaming workload.
  fi.Reset();
  {
    std::string dir = TempDir("semitri_scrash_discover");
    std::string ckpt = dir + "_mgr.ckpt";
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore durable(config);
    core::SemiTriPipeline pipeline(Model(), &durable);
    stream::SessionManager manager(&pipeline);
    size_t at = 0;
    ASSERT_TRUE(RunStreamingWorkload(&manager, &durable, ckpt, 0,
                                     kCheckpointEvery, &at)
                    .ok());
    ASSERT_TRUE(durable.ContentEquals(reference));
    fs::remove_all(dir);
    fs::remove(ckpt);
  }
  std::vector<std::string> sites = fi.Sites();
  ASSERT_FALSE(sites.empty());

  for (const std::string& site : sites) {
    uint64_t hits = fi.HitCount(site);
    if (hits == 0) continue;
    uint64_t n = hits / 2 + 1;  // kill mid-run
    SCOPED_TRACE(site + " streaming crash at hit " + std::to_string(n));
    std::string dir =
        TempDir("semitri_scrash_" +
                std::to_string(std::hash<std::string>{}(site)));
    std::string ckpt = dir + "_mgr.ckpt";
    fs::remove(ckpt);
    fi.Reset();
    fi.Arm(site, common::FaultPolicy::CrashNth(n));
    size_t checkpointed_at = 0;
    {
      store::StoreConfig config;
      config.durable_dir = dir;
      store::SemanticTrajectoryStore durable(config);
      core::SemiTriPipeline pipeline(Model(), &durable);
      stream::SessionManager manager(&pipeline);
      common::Status died =
          RunStreamingWorkload(&manager, &durable, ckpt, 0,
                               kCheckpointEvery, &checkpointed_at);
      EXPECT_FALSE(died.ok()) << "crash policy never fired";
    }  // process "dies"
    fi.Reset();

    // Reboot: recover the store, restore live sessions from the last
    // durable manager checkpoint, resume the feed from that point.
    store::SemanticTrajectoryStore recovered;
    auto stats = recovered.Recover(dir);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    core::SemiTriPipeline pipeline(Model(), &recovered);
    stream::SessionManager manager(&pipeline);
    if (checkpointed_at > 0) {
      ASSERT_TRUE(manager.Restore(ckpt).ok());
    }
    ASSERT_TRUE(RunStreamingWorkload(&manager, &recovered, ckpt,
                                     checkpointed_at, kCheckpointEvery,
                                     nullptr)
                    .ok());
    EXPECT_TRUE(recovered.ContentEquals(reference))
        << "streaming store diverged after crash at " << site;
    fs::remove_all(dir);
    fs::remove(ckpt);
  }
}

TEST_F(RecoveryFixture, PoiFailureDegradesToRegionAndLine) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  // An unreachable POI repository: the point_annotation stage fails on
  // every trajectory. With SkipAndRecord the run completes with
  // region+line layers and a per-stage skip report.
  store::SemanticTrajectoryStore store;
  core::PipelineConfig config;
  config.annotation_failure = core::FailurePolicy::SkipAndRecord();
  core::SemiTriPipeline pipeline(&world_->regions, &world_->roads,
                                 &world_->pois, config, &store);
  fi.Arm(std::string("stage:") + core::kStagePointAnnotation,
         common::FaultPolicy::FailAlways());
  const datagen::SimulatedTrack& track = dataset_.tracks.front();
  auto results = pipeline.ProcessStream(track.object_id, track.points, 0);
  fi.Reset();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_FALSE(results->empty());
  for (const core::PipelineResult& r : *results) {
    EXPECT_TRUE(r.region_layer.has_value());
    EXPECT_TRUE(r.line_layer.has_value());
    EXPECT_FALSE(r.point_layer.has_value());
    EXPECT_TRUE(r.degraded());
    auto it = r.stage_reports.find(core::kStagePointAnnotation);
    ASSERT_TRUE(it != r.stage_reports.end());
    EXPECT_TRUE(it->second.skipped);
    EXPECT_FALSE(it->second.status.ok());
    // Store side: region+line rows landed, no point rows.
    auto interps = store.ListInterpretations(r.cleaned.id);
    EXPECT_TRUE(std::find(interps.begin(), interps.end(), "region") !=
                interps.end());
    EXPECT_TRUE(std::find(interps.begin(), interps.end(), "point") ==
                interps.end());
  }
}

// The migration leg of the kill-at-every-site sweep: a live session
// migration killed at any of its fault sites must abort with the
// session recoverable on exactly one shard — and the interrupted run,
// once the driver retries and finishes the streams, must converge
// ContentEquals to an uninterrupted single-process run.
TEST_F(RecoveryFixture, MigrationKilledAtEverySiteLeavesOneOwner) {
  common::FaultInjector& fi = common::FaultInjector::Global();

  // Uninterrupted reference.
  store::SemanticTrajectoryStore reference;
  {
    core::SemiTriPipeline pipeline(Model(), &reference);
    stream::SessionManager manager(&pipeline);
    for (const datagen::SimulatedTrack& track : dataset_.tracks) {
      for (const core::GpsPoint& fix : track.points) {
        ASSERT_TRUE(manager.Feed(track.object_id, fix).ok());
      }
    }
    ASSERT_TRUE(manager.CloseAll().ok());
  }

  for (const char* site :
       {"migration_pack", "migration_handoff", "migration_unpack"}) {
    SCOPED_TRACE(site);
    fi.Reset();
    shard::ShardClusterConfig config;
    config.num_shards = 2;
    config.base_dir = TempDir(std::string("semitri_migration_kill_") + site);
    auto opened = shard::ShardCluster::Open(&world_->regions, &world_->roads,
                                            &world_->pois, config);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<shard::ShardCluster> cluster = std::move(opened.value());

    // Feed the first half of every track, then kill the migration of
    // each object at `site`.
    size_t longest = 0;
    for (const datagen::SimulatedTrack& t : dataset_.tracks) {
      longest = std::max(longest, t.points.size());
    }
    for (size_t k = 0; k < longest / 2; ++k) {
      for (const datagen::SimulatedTrack& track : dataset_.tracks) {
        if (k >= track.points.size()) continue;
        ASSERT_TRUE(cluster->Feed(track.object_id, track.points[k]).ok());
      }
    }
    for (const datagen::SimulatedTrack& track : dataset_.tracks) {
      shard::ShardId src = cluster->OwnerOf(track.object_id);
      shard::ShardId dest = (src + 1) % 2;
      fi.Arm(site, common::FaultPolicy::CrashNth(1));
      EXPECT_FALSE(cluster->MigrateObject(track.object_id, dest).ok());
      fi.Disarm(site);
      // Killed mid-migration: the session lives on exactly one shard,
      // the source, and the routing still points there.
      std::vector<shard::ShardId> owners =
          cluster->LiveSessionShards(track.object_id);
      ASSERT_EQ(owners.size(), 1u)
          << "session lost or duplicated after kill at " << site;
      EXPECT_EQ(owners[0], src);
      EXPECT_EQ(cluster->OwnerOf(track.object_id), src);
      // The driver retries once the fault clears.
      ASSERT_TRUE(cluster->MigrateObject(track.object_id, dest).ok());
    }
    for (size_t k = longest / 2; k < longest; ++k) {
      for (const datagen::SimulatedTrack& track : dataset_.tracks) {
        if (k >= track.points.size()) continue;
        ASSERT_TRUE(cluster->Feed(track.object_id, track.points[k]).ok());
      }
    }
    ASSERT_TRUE(cluster->CloseAll().ok());
    store::SemanticTrajectoryStore merged;
    ASSERT_TRUE(cluster->MergeStores(&merged).ok());
    EXPECT_TRUE(merged.ContentEquals(reference))
        << "cluster diverged after migration killed at " << site;
    fs::remove_all(config.base_dir);
  }
  fi.Reset();
}

// WAL shipping killed mid-ship: the primary's durability is untouched
// (shipping is replication, not the ack path), the lag is visible, and
// a restarted shard ships the backlog so a standby rebuild converges.
TEST_F(RecoveryFixture, WalShipKilledMidShipRecoversAfterRestart) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  fi.Reset();
  shard::ShardClusterConfig config;
  config.num_shards = 1;
  config.base_dir = TempDir("semitri_wal_ship_kill");
  auto opened = shard::ShardCluster::Open(&world_->regions, &world_->roads,
                                          &world_->pois, config);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<shard::ShardCluster> cluster = std::move(opened.value());
  for (const datagen::SimulatedTrack& track : dataset_.tracks) {
    for (const core::GpsPoint& fix : track.points) {
      ASSERT_TRUE(cluster->Feed(track.object_id, fix).ok());
    }
  }
  ASSERT_TRUE(cluster->CloseAll().ok());

  // The ship is killed mid-flight: the seal lands, the copy does not.
  fi.Arm("wal_ship", common::FaultPolicy::CrashNth(1));
  EXPECT_FALSE(cluster->SealAndShipAll().ok());
  fi.Disarm("wal_ship");
  std::shared_ptr<shard::ShardRuntime> runtime = cluster->runtime(0);
  ASSERT_NE(runtime, nullptr);
  EXPECT_GT(runtime->ShardHealthInfo().wal_ship_lag_segments, 0u);
  // The crashed shipper stays dead, like the sidecar process it
  // models...
  EXPECT_FALSE(cluster->SealAndShipAll().ok());
  // ...but the primary's own ack path does not depend on it.
  ASSERT_TRUE(cluster->CheckpointAll().ok());

  // Restarting the shard brings a fresh shipper that drains the
  // backlog.
  ASSERT_TRUE(cluster->KillShard(0).ok());
  ASSERT_TRUE(cluster->RestartShard(0).ok());
  auto shipped = cluster->SealAndShipAll();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_GT(shipped->segments_shipped, 0u);
  runtime = cluster->runtime(0);
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(runtime->ShardHealthInfo().wal_ship_lag_segments, 0u);

  // A standby rebuilt purely from shipped segments has everything.
  store::SemanticTrajectoryStore standby;
  ASSERT_TRUE(standby.Recover(runtime->config().standby_dir).ok());
  EXPECT_TRUE(standby.ContentEquals(*runtime->store()))
      << "standby diverged after the shipping crash + restart";
  fs::remove_all(config.base_dir);
  fi.Reset();
}

}  // namespace
}  // namespace semitri
