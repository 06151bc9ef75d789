// Tests for the background integrity scrubber: detection of bit rot in
// sealed WAL segments and checkpoint snapshots, repair from a standby's
// shipped copy, quarantine when no intact copy exists, and the
// incremental Tick() walk. No fault injection needed — corruption is
// planted by rewriting bytes directly, which is exactly what the
// scrubber exists to catch.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "shard/wal_shipper.h"
#include "store/integrity_scrubber.h"
#include "store/semantic_trajectory_store.h"
#include "store/wal.h"

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
  t.object_id = 9;
  for (int i = 0; i < n; ++i) {
    t.points.push_back({{i * 2.0 + id, i * 3.0}, i * 10.0});
  }
  return t;
}

// Flips a byte in the middle of `path`, keeping the size unchanged —
// the silent-bit-rot shape a metadata check cannot see.
void CorruptMiddleByte(const std::string& path) {
  common::Env* env = common::Env::Default();
  std::string data;
  ASSERT_TRUE(env->ReadFileToString(path, &data).ok());
  ASSERT_GT(data.size(), 2u);
  data[data.size() / 2] ^= 0x5A;
  ASSERT_TRUE(env->WriteStringToFile(path, data, /*sync=*/true).ok());
}

bool SegmentIntact(const std::string& path) {
  auto scanned = store::ReplayWal(
      path,
      [](store::WalRecordType, std::string_view) {
        return common::Status::OK();
      },
      /*truncate_torn_tail=*/false);
  return scanned.ok() && scanned->torn_bytes_truncated == 0;
}

// A durable directory with one checkpoint snapshot, one sealed segment,
// and an active WAL tail; the sealed segment optionally shipped to
// `standby`.
class ScrubberFixture : public ::testing::Test {
 protected:
  void BuildPrimary(const std::string& dir, const std::string& standby) {
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore primary(config);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(i, 6)).ok());
    }
    ASSERT_TRUE(primary.Checkpoint().ok());
    for (int i = 4; i < 8; ++i) {
      ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(i, 6)).ok());
    }
    auto sealed = primary.SealWalSegment();
    ASSERT_TRUE(sealed.ok());
    ASSERT_FALSE(sealed->empty());
    sealed_name_ = *sealed;
    ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(8, 6)).ok());
    ASSERT_TRUE(primary.Sync().ok());
    if (!standby.empty()) {
      shard::WalShipper shipper(dir, standby);
      auto shipped = shipper.ShipSealedSegments();
      ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
      ASSERT_EQ(shipped->segments_shipped, 1u);
    }
    // The reference the repaired primary must still recover to.
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(reference_.PutRawTrajectory(MakeTrajectory(i, 6)).ok());
    }
  }

  std::string CurrentSnapshot(const std::string& dir) {
    auto snapshot = store::SemanticTrajectoryStore::CurrentSnapshot(dir);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return snapshot.ok() ? dir + "/" + snapshot->name : "";
  }

  std::string sealed_name_;
  store::SemanticTrajectoryStore reference_;
};

TEST_F(ScrubberFixture, CleanDirectoryScansWithoutFindings) {
  std::string dir = TempDir("semitri_scrub_clean");
  BuildPrimary(dir, "");
  store::ScrubberConfig config;
  config.dir = dir;
  config.files_per_cycle = 0;  // everything in one Tick
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  const auto& c = scrubber.counters();
  // One sealed segment + the snapshot CURRENT names.
  EXPECT_EQ(c.files_scanned, 2u);
  EXPECT_EQ(c.corrupt_detected, 0u);
  EXPECT_EQ(c.repaired, 0u);
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_EQ(c.cycles_completed, 1u);
  EXPECT_TRUE(scrubber.last_quarantine().empty());
  fs::remove_all(dir);
}

TEST_F(ScrubberFixture, RepairsCorruptSealedSegmentFromStandby) {
  std::string dir = TempDir("semitri_scrub_repair");
  std::string standby = TempDir("semitri_scrub_repair_standby");
  BuildPrimary(dir, standby);
  CorruptMiddleByte(dir + "/" + sealed_name_);
  ASSERT_FALSE(SegmentIntact(dir + "/" + sealed_name_));

  store::ScrubberConfig config;
  config.dir = dir;
  config.repair_dir = standby;
  config.files_per_cycle = 0;
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  const auto& c = scrubber.counters();
  EXPECT_EQ(c.corrupt_detected, 1u);
  EXPECT_EQ(c.repaired, 1u);
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_TRUE(SegmentIntact(dir + "/" + sealed_name_));

  // Recovery over the repaired directory converges to the clean state.
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(recovered.ContentEquals(reference_));
  fs::remove_all(dir);
  fs::remove_all(standby);
}

TEST_F(ScrubberFixture, QuarantinesWithoutARepairSource) {
  std::string dir = TempDir("semitri_scrub_quarantine");
  BuildPrimary(dir, "");
  std::string segment = dir + "/" + sealed_name_;
  CorruptMiddleByte(segment);

  store::ScrubberConfig config;
  config.dir = dir;  // no repair_dir: quarantine is the only option
  config.files_per_cycle = 0;
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  const auto& c = scrubber.counters();
  EXPECT_EQ(c.corrupt_detected, 1u);
  EXPECT_EQ(c.repaired, 0u);
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(scrubber.last_quarantine(), segment);
  common::Env* env = common::Env::Default();
  EXPECT_FALSE(env->FileExists(segment));
  EXPECT_TRUE(env->FileExists(segment + ".quarantined"));

  // The loss is loud (counter + renamed file), not a CRC surprise at
  // the next failover: recovery itself still succeeds on what's left.
  store::SemanticTrajectoryStore recovered;
  EXPECT_TRUE(recovered.Recover(dir).ok());
  fs::remove_all(dir);
}

TEST_F(ScrubberFixture, RefusesToRepairFromACorruptStandbyCopy) {
  std::string dir = TempDir("semitri_scrub_bad_standby");
  std::string standby = TempDir("semitri_scrub_bad_standby_sb");
  BuildPrimary(dir, standby);
  // Both copies rot: copying the standby's corruption over the
  // primary's would launder bad data into a "repaired" file.
  CorruptMiddleByte(dir + "/" + sealed_name_);
  CorruptMiddleByte(standby + "/" + sealed_name_);

  store::ScrubberConfig config;
  config.dir = dir;
  config.repair_dir = standby;
  config.files_per_cycle = 0;
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  const auto& c = scrubber.counters();
  EXPECT_EQ(c.corrupt_detected, 1u);
  EXPECT_EQ(c.repaired, 0u);
  EXPECT_EQ(c.quarantined, 1u);
  fs::remove_all(dir);
  fs::remove_all(standby);
}

TEST_F(ScrubberFixture, DetectsCorruptSnapshotAndQuarantinesIt) {
  std::string dir = TempDir("semitri_scrub_ckpt");
  BuildPrimary(dir, "");
  std::string snapshot = CurrentSnapshot(dir);
  CorruptMiddleByte(snapshot);

  store::ScrubberConfig config;
  config.dir = dir;
  config.files_per_cycle = 0;
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  const auto& c = scrubber.counters();
  // Snapshots are never shipped, so a corrupt one can only
  // quarantine — which makes the snapshot unusable loudly.
  EXPECT_EQ(c.corrupt_detected, 1u);
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(scrubber.last_quarantine(), snapshot);
  EXPECT_TRUE(common::Env::Default()->FileExists(snapshot + ".quarantined"));
  fs::remove_all(dir);
}

TEST_F(ScrubberFixture, SnapshotTruncatedAtFrameBoundaryIsCaught) {
  std::string dir = TempDir("semitri_scrub_short_snapshot");
  BuildPrimary(dir, "");
  std::string snapshot = CurrentSnapshot(dir);
  // Cut the last frame off whole: every remaining frame is intact, so
  // only the byte size CURRENT records can tell the file is short.
  std::string data;
  ASSERT_TRUE(common::Env::Default()->ReadFileToString(snapshot, &data).ok());
  size_t last_frame = 0;
  for (size_t pos = 0; pos < data.size();) {
    last_frame = pos;
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + i]))
                << (8 * i);
    }
    pos += 8 + 1 + length;  // header + type byte + payload
  }
  ASSERT_GT(last_frame, 0u);
  ASSERT_TRUE(common::Env::Default()
                  ->WriteStringToFile(snapshot, data.substr(0, last_frame),
                                      /*sync=*/true)
                  .ok());
  ASSERT_TRUE(SegmentIntact(snapshot));

  store::SemanticTrajectoryStore recovered;
  EXPECT_EQ(recovered.Recover(dir).status().code(),
            common::StatusCode::kCorruption);

  store::ScrubberConfig config;
  config.dir = dir;
  config.files_per_cycle = 0;
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  const auto& c = scrubber.counters();
  EXPECT_EQ(c.files_scanned, 2u);
  EXPECT_EQ(c.corrupt_detected, 1u);
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(scrubber.last_quarantine(), snapshot);
  fs::remove_all(dir);
}

TEST_F(ScrubberFixture, TickWalksIncrementallyAndCyclesPickUpNewDamage) {
  std::string dir = TempDir("semitri_scrub_incremental");
  std::string standby = TempDir("semitri_scrub_incremental_sb");
  BuildPrimary(dir, standby);

  store::ScrubberConfig config;
  config.dir = dir;
  config.repair_dir = standby;
  config.files_per_cycle = 1;  // 2 files: 2 Ticks per cycle
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  EXPECT_EQ(scrubber.counters().files_scanned, 1u);
  EXPECT_EQ(scrubber.counters().cycles_completed, 0u);
  ASSERT_TRUE(scrubber.Tick().ok());
  EXPECT_EQ(scrubber.counters().files_scanned, 2u);
  EXPECT_EQ(scrubber.counters().cycles_completed, 1u);

  // Damage landing after a cycle completed is caught by the next walk.
  CorruptMiddleByte(dir + "/" + sealed_name_);
  while (scrubber.counters().cycles_completed < 2) {
    ASSERT_TRUE(scrubber.Tick().ok());
  }
  EXPECT_EQ(scrubber.counters().corrupt_detected, 1u);
  EXPECT_EQ(scrubber.counters().repaired, 1u);
  EXPECT_TRUE(SegmentIntact(dir + "/" + sealed_name_));
  fs::remove_all(dir);
  fs::remove_all(standby);
}

TEST_F(ScrubberFixture, VanishedFilesAreARaceNotCorruption) {
  std::string dir = TempDir("semitri_scrub_vanish");
  BuildPrimary(dir, "");
  store::ScrubberConfig config;
  config.dir = dir;
  config.files_per_cycle = 1;  // worklist built on the first Tick
  store::IntegrityScrubber scrubber(config);
  ASSERT_TRUE(scrubber.Tick().ok());
  // A checkpoint compacts the directory mid-walk: the sealed segment
  // and old generation the worklist still names get GC'd.
  {
    store::SemanticTrajectoryStore reopened;
    ASSERT_TRUE(reopened.Recover(dir).ok());
    ASSERT_TRUE(reopened.Checkpoint().ok());
  }
  while (scrubber.counters().cycles_completed < 1) {
    ASSERT_TRUE(scrubber.Tick().ok());
  }
  EXPECT_EQ(scrubber.counters().corrupt_detected, 0u);
  EXPECT_EQ(scrubber.counters().quarantined, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace semitri
