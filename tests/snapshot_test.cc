// Tests for the store's binary checkpoint snapshots: entries with no
// rows survive Checkpoint() + Recover(), a snapshot holds exactly the
// row-0 records an offline log holds, Recover() refuses a damaged
// snapshot or a CSV checkpoint of an older build, and the sealed-segment
// sequence never repeats a number — neither after a checkpoint removed
// the old segments (which a standby must still receive under new
// names) nor after a crash left covered segments behind. A seal also
// creates the next active log, empty, for the next Put to append to.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/env.h"
#include "shard/wal_shipper.h"
#include "store/semantic_trajectory_store.h"

namespace semitri {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

core::RawTrajectory MakeTrajectory(core::TrajectoryId id, int n) {
  core::RawTrajectory t;
  t.id = id;
  t.object_id = 4;
  for (int i = 0; i < n; ++i) {
    t.points.push_back({{i * 1.5 + id, i * 2.5}, i * 30.0});
  }
  return t;
}

core::StructuredSemanticTrajectory MakeInterpretation(
    core::TrajectoryId id, const std::string& name, int episodes) {
  core::StructuredSemanticTrajectory t;
  t.trajectory_id = id;
  t.object_id = 4;
  t.interpretation = name;
  for (int i = 0; i < episodes; ++i) {
    core::SemanticEpisode ep;
    ep.kind = core::EpisodeKind::kStop;
    ep.place = {core::PlaceKind::kPoint, 10 + i};
    ep.time_in = i * 100.0;
    ep.time_out = i * 100.0 + 40.0;
    ep.AddAnnotation("poi_category", "cafe");
    t.episodes.push_back(ep);
  }
  return t;
}

std::string ReadFile(const std::string& path) {
  std::string data;
  EXPECT_TRUE(common::Env::Default()->ReadFileToString(path, &data).ok());
  return data;
}

TEST(SnapshotTest, EntriesWithoutRowsSurviveCheckpointAndRecover) {
  std::string dir = TempDir("semitri_snapshot_empties");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore durable(config);
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(1, 0)).ok());
  ASSERT_TRUE(durable.PutEpisodes(2, {}).ok());
  ASSERT_TRUE(durable.PutInterpretation(MakeInterpretation(3, "point", 0)).ok());
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(3, 6)).ok());
  ASSERT_TRUE(durable.PutInterpretation(MakeInterpretation(3, "line", 2)).ok());
  ASSERT_TRUE(durable.Checkpoint().ok());

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->checkpoint_loaded);
  EXPECT_EQ(stats->wal_records_replayed, 0u);
  EXPECT_TRUE(recovered.ContentEquals(durable));
  auto empty_raw = recovered.GetRawTrajectory(1);
  ASSERT_TRUE(empty_raw.ok());
  EXPECT_EQ(empty_raw->object_id, 4);
  EXPECT_TRUE(empty_raw->points.empty());
  auto empty_episodes = recovered.GetEpisodes(2);
  ASSERT_TRUE(empty_episodes.ok());
  EXPECT_TRUE(empty_episodes->empty());
  auto empty_layer = recovered.GetInterpretation(3, "point");
  ASSERT_TRUE(empty_layer.ok());
  EXPECT_TRUE(empty_layer->episodes.empty());
  fs::remove_all(dir);
}

TEST(SnapshotTest, CheckpointBeforeAnyWriteRecoversEmpty) {
  std::string dir = TempDir("semitri_snapshot_fresh");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore durable(config);
  ASSERT_TRUE(durable.Checkpoint().ok());
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->checkpoint_loaded);
  EXPECT_EQ(recovered.num_trajectories(), 0u);
  fs::remove_all(dir);
}

TEST(SnapshotTest, SnapshotHoldsTheFullPutsAnOfflineLogHolds) {
  std::string dir = TempDir("semitri_snapshot_bytes");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore durable(config);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(i, 3 + i)).ok());
    ASSERT_TRUE(
        durable.PutInterpretation(MakeInterpretation(i, "point", i)).ok());
  }
  ASSERT_TRUE(durable.Sync().ok());
  const uintmax_t wal_bytes = fs::file_size(dir + "/wal.log");
  ASSERT_TRUE(durable.Checkpoint().ok());
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 0u);

  auto snapshot = store::SemanticTrajectoryStore::CurrentSnapshot(dir);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // Every entry was put once, so the snapshot's records are the log's.
  EXPECT_EQ(snapshot->bytes, wal_bytes);
  EXPECT_EQ(fs::file_size(dir + "/" + snapshot->name), wal_bytes);
  // The snapshot is the only checkpoint file: no CSV tables beside it.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 3u);  // CURRENT, the snapshot, the emptied wal.log
  fs::remove_all(dir);
}

TEST(SnapshotTest, RecoverRejectsDamagedSnapshot) {
  std::string dir = TempDir("semitri_snapshot_damaged");
  store::StoreConfig config;
  config.durable_dir = dir;
  {
    store::SemanticTrajectoryStore durable(config);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(i, 8)).ok());
    }
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  auto snapshot = store::SemanticTrajectoryStore::CurrentSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  const std::string path = dir + "/" + snapshot->name;
  const std::string intact = ReadFile(path);
  common::Env* env = common::Env::Default();

  // A flipped byte fails its frame's CRC.
  std::string flipped = intact;
  flipped[flipped.size() / 2] ^= 0x20;
  ASSERT_TRUE(env->WriteStringToFile(path, flipped, /*sync=*/true).ok());
  store::SemanticTrajectoryStore recovered;
  EXPECT_EQ(recovered.Recover(dir).status().code(),
            common::StatusCode::kCorruption);

  // A torn final frame.
  ASSERT_TRUE(env->WriteStringToFile(path, intact.substr(0, intact.size() - 3),
                                     /*sync=*/true)
                  .ok());
  EXPECT_EQ(recovered.Recover(dir).status().code(),
            common::StatusCode::kCorruption);

  // A missing snapshot.
  ASSERT_TRUE(env->RemoveFile(path).ok());
  EXPECT_EQ(recovered.Recover(dir).status().code(),
            common::StatusCode::kCorruption);

  // Restored, it recovers.
  ASSERT_TRUE(env->WriteStringToFile(path, intact, /*sync=*/true).ok());
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(recovered.num_trajectories(), 4u);
  fs::remove_all(dir);
}

TEST(SnapshotTest, RecoverRefusesCsvCheckpointOfAnOlderBuild) {
  std::string dir = TempDir("semitri_snapshot_legacy");
  store::SemanticTrajectoryStore exported;
  ASSERT_TRUE(exported.PutRawTrajectory(MakeTrajectory(1, 5)).ok());
  ASSERT_TRUE(exported.SaveCsv(dir + "/checkpoint-3").ok());
  ASSERT_TRUE(common::Env::Default()
                  ->WriteStringToFile(dir + "/CURRENT", "checkpoint-3\n",
                                      /*sync=*/true)
                  .ok());
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), common::StatusCode::kCorruption);
  EXPECT_NE(stats.status().message().find("checkpoint-3"), std::string::npos)
      << stats.status().ToString();
  fs::remove_all(dir);
}

// A crash inside Checkpoint() after the log truncation but before the
// sealed segments are removed, emulated at file level: the segment the
// snapshot covers is put back. Replaying it with no log after it would
// roll trajectory 7 back to its sealed 5 fixes.
TEST(SnapshotTest, CoveredSealedSegmentIsNotReplayedOverTheSnapshot) {
  std::string dir = TempDir("semitri_snapshot_covered_segment");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore durable(config);
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(7, 5)).ok());
  auto sealed = durable.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  ASSERT_FALSE(sealed->empty());
  const std::string segment = ReadFile(dir + "/" + *sealed);
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(7, 10)).ok());
  ASSERT_TRUE(durable.Checkpoint().ok());
  ASSERT_FALSE(fs::exists(dir + "/" + *sealed));
  ASSERT_TRUE(common::Env::Default()
                  ->WriteStringToFile(dir + "/" + *sealed, segment,
                                      /*sync=*/true)
                  .ok());

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->wal_segments_replayed, 0u);
  auto raw = recovered.GetRawTrajectory(7);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->points.size(), 10u);
  EXPECT_TRUE(recovered.ContentEquals(durable));
  fs::remove_all(dir);
}

// Ship trajectory A's segment, checkpoint (ShardRuntime::CompactStore),
// then put, seal and ship B. B's segment must get a name the shipper
// has never seen, whether or not it has A's size: a reused name is
// skipped as already shipped (same size) or overwrites A (otherwise).
void ExpectStandbyConvergesAfterCheckpoint(const std::string& name,
                                           int b_points) {
  std::string dir = TempDir("semitri_snapshot_ship_" + name);
  std::string standby = TempDir("semitri_snapshot_ship_" + name + "_sb");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore primary(config);
  shard::WalShipper shipper(dir, standby);

  ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(1, 6)).ok());
  auto first = primary.SealWalSegment();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(shipper.ShipSealedSegments().ok());
  ASSERT_TRUE(primary.Checkpoint().ok());

  ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(2, b_points)).ok());
  auto second = primary.SealWalSegment();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
  auto shipped = shipper.ShipSealedSegments();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_EQ(shipped->segments_shipped, 1u);
  EXPECT_EQ(fs::file_size(standby + "/" + *first) ==
                fs::file_size(standby + "/" + *second),
            b_points == 6);

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(standby);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->wal_segments_replayed, 2u);
  EXPECT_TRUE(recovered.ContentEquals(primary));
  fs::remove_all(dir);
  fs::remove_all(standby);
}

TEST(SnapshotTest, StandbyConvergesAfterCheckpointWithSameSizeSegments) {
  ExpectStandbyConvergesAfterCheckpoint("same", 6);
}

TEST(SnapshotTest, StandbyConvergesAfterCheckpointWithOtherSizeSegments) {
  ExpectStandbyConvergesAfterCheckpoint("other", 9);
}

TEST(SnapshotTest, SequenceResumesPastEveryNumberInTheDirectory) {
  std::string dir = TempDir("semitri_snapshot_sequence");
  store::StoreConfig config;
  config.durable_dir = dir;
  {
    store::SemanticTrajectoryStore durable(config);
    ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(1, 3)).ok());
    auto sealed = durable.SealWalSegment();
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(*sealed, "wal-000001.log");
    ASSERT_TRUE(durable.Checkpoint().ok());
    auto snapshot = store::SemanticTrajectoryStore::CurrentSnapshot(dir);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(snapshot->name, "snapshot-000002.log");
    EXPECT_EQ(snapshot->sequence, 2u);
  }
  // A restarted process resumes past the snapshot's number, and past a
  // number only a quarantined file still holds.
  store::SemanticTrajectoryStore restarted;
  ASSERT_TRUE(restarted.Recover(dir).ok());
  ASSERT_TRUE(restarted.PutRawTrajectory(MakeTrajectory(2, 3)).ok());
  auto sealed = restarted.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, "wal-000003.log");
  ASSERT_TRUE(common::Env::Default()
                  ->RenameFile(dir + "/" + *sealed,
                               dir + "/" + *sealed + ".quarantined")
                  .ok());
  ASSERT_TRUE(restarted.Recover(dir).ok());
  ASSERT_TRUE(restarted.PutRawTrajectory(MakeTrajectory(3, 3)).ok());
  sealed = restarted.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, "wal-000004.log");
  fs::remove_all(dir);
}

TEST(SnapshotTest, SealCreatesTheNextActiveLogEmpty) {
  std::string dir = TempDir("semitri_snapshot_seal_active");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore durable(config);
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(1, 3)).ok());
  auto sealed = durable.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, "wal-000001.log");
  // The next active log exists before a Put needs it, and an empty one
  // leaves nothing for another seal.
  ASSERT_TRUE(fs::exists(dir + "/wal.log"));
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 0u);
  sealed = durable.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, "");
  // The next Put appends to it, and the next seal takes the next number.
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(2, 4)).ok());
  EXPECT_GT(fs::file_size(dir + "/wal.log"), 0u);
  sealed = durable.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, "wal-000002.log");

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->wal_segments_replayed, 2u);
  EXPECT_TRUE(recovered.ContentEquals(durable));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace semitri
