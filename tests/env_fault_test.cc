// Disk-fault resilience harness for the common::Env plumbing.
//
// The storage-fault contract under test: a disk fault injected at ANY
// Env operation — open, append, sync, rename, ... — leaves the store
// either fully recovered (ContentEquals a clean run, after reopening
// the directory through a healthy Env) or loudly in read-only degraded
// mode with the fault surfaced; never silently acknowledging writes
// the disk may not hold.
//
// Three groups:
//  - always-on tests driving a hand-rolled FlakyEnv: WAL-writer
//    poisoning, read-only degraded entry/exit, health surfacing;
//  - always-on WalShipper hygiene tests (tmp-orphan sweep);
//  - the fault-at-every-Env-site sweep. Like tests/recovery_test.cc it
//    discovers the "env:" sites dynamically (FaultFs registers them on
//    first fire), so a new Env operation is covered automatically, and
//    it closes the loop against the checked-in registry in
//    common/fault_sites.h.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/fault_fs.h"
#include "common/fault_injection.h"
#include "common/fault_sites.h"
#include "core/health.h"
#include "shard/wal_shipper.h"
#include "store/semantic_trajectory_store.h"
#include "store/wal.h"

namespace semitri {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// FlakyEnv: an always-compiled failing-disk decorator. Unlike FaultFs
// (whose faults fire through the injector and vanish in production
// builds) this one fails unconditionally while a flag is set, so the
// poisoning / degraded-mode contracts are exercised in every build.
// ---------------------------------------------------------------------

class FlakyEnv;

class FlakyFile final : public common::WritableFile {
 public:
  FlakyFile(FlakyEnv* env, std::unique_ptr<common::WritableFile> base)
      : env_(env), base_(std::move(base)) {}
  common::Status Append(std::string_view data) override;
  common::Status Sync() override;
  common::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }
  common::Status Close() override { return base_->Close(); }

 private:
  FlakyEnv* const env_;
  const std::unique_ptr<common::WritableFile> base_;
};

class FlakyEnv final : public common::Env {
 public:
  FlakyEnv() : base_(common::Env::Default()) {}

  bool fail_appends = false;
  bool fail_syncs = false;

  common::Result<std::unique_ptr<common::WritableFile>> NewWritableFile(
      const std::string& path, common::WriteMode mode) override {
    auto base = base_->NewWritableFile(path, mode);
    if (!base.ok()) return base.status();
    return std::unique_ptr<common::WritableFile>(
        new FlakyFile(this, std::move(*base)));
  }
  common::Status ReadFileToString(const std::string& path,
                                  std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  common::Status WriteStringToFile(const std::string& path,
                                   std::string_view data, bool sync) override {
    if (fail_appends) {
      return common::Status::IoError("flaky: write failed on " + path);
    }
    return base_->WriteStringToFile(path, data, sync);
  }
  common::Status RenameFile(const std::string& from,
                            const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  common::Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  common::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  common::Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  common::Status RemoveDirRecursive(const std::string& dir) override {
    return base_->RemoveDirRecursive(dir);
  }
  common::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool IsDirectory(const std::string& path) override {
    return base_->IsDirectory(path);
  }
  common::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  common::Status TruncateFile(const std::string& path,
                              uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  common::Env* const base_;
};

common::Status FlakyFile::Append(std::string_view data) {
  if (env_->fail_appends) {
    return common::Status::IoError("flaky: injected append failure (ENOSPC)");
  }
  return base_->Append(data);
}

common::Status FlakyFile::Sync() {
  if (env_->fail_syncs) {
    return common::Status::IoError("flaky: injected fsync failure");
  }
  return base_->Sync();
}

// ---------------------------------------------------------------------
// Workload: direct store puts with a checkpoint, a segment seal, and
// periodic syncs folded in, so one pass crosses every Env operation
// the store can issue. Every Put is a keyed overwrite, so re-running
// the workload after a recovery converges.
// ---------------------------------------------------------------------

core::RawTrajectory MakeTrajectory(core::TrajectoryId id,
                                   core::ObjectId object, int n) {
  core::RawTrajectory t;
  t.id = id;
  t.object_id = object;
  for (int i = 0; i < n; ++i) {
    t.points.push_back({{i * 2.0 + id, i * 3.0}, i * 10.0});
  }
  return t;
}

std::vector<core::Episode> MakeEpisodes(const core::RawTrajectory& t) {
  core::Episode stop;
  stop.kind = core::EpisodeKind::kStop;
  stop.begin = 0;
  stop.end = t.size() / 2;
  stop.time_in = 0;
  stop.time_out = 40;
  stop.center = {1, 1};
  stop.bounds = geo::BoundingBox({0, 0}, {2, 2});
  core::Episode move = stop;
  move.kind = core::EpisodeKind::kMove;
  move.begin = t.size() / 2;
  move.end = t.size();
  return {stop, move};
}

core::StructuredSemanticTrajectory MakeInterpretation(
    core::TrajectoryId id, const std::string& name) {
  core::StructuredSemanticTrajectory t;
  t.trajectory_id = id;
  t.object_id = 9;
  t.interpretation = name;
  core::SemanticEpisode ep;
  ep.kind = core::EpisodeKind::kStop;
  ep.place = {core::PlaceKind::kRegion, 42};
  ep.time_in = 5;
  ep.time_out = 15;
  ep.AddAnnotation("poi_category", "restaurant");
  t.episodes.push_back(ep);
  return t;
}

common::Status RunStoreWorkload(store::SemanticTrajectoryStore* s) {
  for (int i = 0; i < 12; ++i) {
    core::RawTrajectory t =
        MakeTrajectory(static_cast<core::TrajectoryId>(i), 9, 6 + i % 3);
    SEMITRI_RETURN_IF_ERROR(s->PutRawTrajectory(t));
    SEMITRI_RETURN_IF_ERROR(s->PutEpisodes(t.id, MakeEpisodes(t)));
    SEMITRI_RETURN_IF_ERROR(
        s->PutInterpretation(MakeInterpretation(t.id, "region")));
    if (i == 4) SEMITRI_RETURN_IF_ERROR(s->Checkpoint());
    if (i == 7) {
      auto sealed = s->SealWalSegment();
      if (!sealed.ok()) return sealed.status();
    }
    if (i % 3 == 0) SEMITRI_RETURN_IF_ERROR(s->Sync());
  }
  return s->Sync();
}

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------
// WAL-writer poisoning (satellite: fsyncgate discipline) — every build.
// ---------------------------------------------------------------------

TEST(WalPoisonTest, FailedSyncPoisonsTheWriterForGood) {
  std::string dir = TempDir("semitri_wal_poison_sync");
  ASSERT_TRUE(common::Env::Default()->CreateDirs(dir).ok());
  FlakyEnv env;
  auto opened = store::WalWriter::Open(dir + "/wal.log", &env);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<store::WalWriter> wal = std::move(*opened);

  ASSERT_TRUE(wal->Append(store::WalRecordType::kRawPoints, "a").ok());
  env.fail_syncs = true;
  EXPECT_FALSE(wal->Sync().ok());
  EXPECT_TRUE(wal->poisoned());

  // The disk "recovers" — but the dropped dirty pages do not. A Sync
  // retry succeeding here would be the fsyncgate durability lie, so
  // every later operation keeps failing and names the original cause.
  env.fail_syncs = false;
  common::Status retry = wal->Sync();
  EXPECT_FALSE(retry.ok());
  EXPECT_NE(retry.message().find("poisoned"), std::string::npos);
  EXPECT_NE(retry.message().find("fsync"), std::string::npos);
  EXPECT_FALSE(
      wal->Append(store::WalRecordType::kRawPoints, "b").ok());
  fs::remove_all(dir);
}

TEST(WalPoisonTest, FailedAppendPoisonsTheWriterForGood) {
  std::string dir = TempDir("semitri_wal_poison_append");
  ASSERT_TRUE(common::Env::Default()->CreateDirs(dir).ok());
  FlakyEnv env;
  auto opened = store::WalWriter::Open(dir + "/wal.log", &env);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<store::WalWriter> wal = std::move(*opened);

  env.fail_appends = true;
  EXPECT_FALSE(
      wal->Append(store::WalRecordType::kRawPoints, "a").ok());
  EXPECT_TRUE(wal->poisoned());
  env.fail_appends = false;
  common::Status retry =
      wal->Append(store::WalRecordType::kRawPoints, "b");
  EXPECT_FALSE(retry.ok());
  EXPECT_NE(retry.message().find("poisoned"), std::string::npos);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Read-only degraded mode — every build.
// ---------------------------------------------------------------------

TEST(DegradedModeTest, WalFailureFlipsStoreReadOnlyAndExitRecovers) {
  std::string dir = TempDir("semitri_degraded_rw");
  FlakyEnv env;
  store::StoreConfig config;
  config.durable_dir = dir;
  config.env = &env;
  store::SemanticTrajectoryStore durable(config);

  core::RawTrajectory first = MakeTrajectory(1, 9, 6);
  ASSERT_TRUE(durable.PutRawTrajectory(first).ok());
  ASSERT_TRUE(durable.Sync().ok());

  // The disk goes bad: the Put fails and the store flips read-only.
  env.fail_appends = true;
  EXPECT_FALSE(durable.PutRawTrajectory(MakeTrajectory(2, 9, 6)).ok());
  EXPECT_TRUE(durable.storage_degraded());
  EXPECT_FALSE(durable.degraded_reason().empty());

  // Reads keep serving already-durable data...
  auto got = durable.GetRawTrajectory(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->points.size(), first.points.size());

  // ...while every write-path call refuses loudly, whatever the disk
  // does now: accepting a write it may not hold would be a lie.
  env.fail_appends = false;
  common::Status put = durable.PutRawTrajectory(MakeTrajectory(3, 9, 6));
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.code(), common::StatusCode::kUnavailable);
  EXPECT_NE(put.message().find("read-only degraded"), std::string::npos);
  EXPECT_FALSE(durable.Sync().ok());
  EXPECT_FALSE(durable.Checkpoint().ok());
  EXPECT_FALSE(durable.SealWalSegment().ok());

  // Explicit operator action rotates the log and re-probes the disk;
  // with the disk healthy again, writes resume and recovery round-trips.
  ASSERT_TRUE(durable.ExitDegradedMode().ok());
  EXPECT_FALSE(durable.storage_degraded());
  EXPECT_TRUE(durable.degraded_reason().empty());
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(4, 9, 6)).ok());
  ASSERT_TRUE(durable.Sync().ok());

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(recovered.ContentEquals(durable));
  fs::remove_all(dir);
}

TEST(DegradedModeTest, ExitStaysDegradedWhileTheDiskIsStillBad) {
  std::string dir = TempDir("semitri_degraded_stuck");
  FlakyEnv env;
  store::StoreConfig config;
  config.durable_dir = dir;
  config.env = &env;
  store::SemanticTrajectoryStore durable(config);
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(1, 9, 6)).ok());

  env.fail_appends = true;
  EXPECT_FALSE(durable.PutRawTrajectory(MakeTrajectory(2, 9, 6)).ok());
  ASSERT_TRUE(durable.storage_degraded());

  // The rotation probe fsyncs the fresh writer; a still-bad disk fails
  // the probe and the store must stay read-only.
  env.fail_appends = false;
  env.fail_syncs = true;
  EXPECT_FALSE(durable.ExitDegradedMode().ok());
  EXPECT_TRUE(durable.storage_degraded());

  env.fail_syncs = false;
  EXPECT_TRUE(durable.ExitDegradedMode().ok());
  EXPECT_FALSE(durable.storage_degraded());
  fs::remove_all(dir);
}

TEST(DegradedModeTest, HealthSnapshotSurfacesStorageAndScrubState) {
  core::HealthSnapshot snapshot;
  EXPECT_FALSE(snapshot.degraded());

  snapshot.storage_degraded = true;
  snapshot.storage_fault = "injected ENOSPC at env:append";
  EXPECT_TRUE(snapshot.degraded());
  std::string rendered = snapshot.ToString();
  EXPECT_NE(rendered.find("READ-ONLY"), std::string::npos);
  EXPECT_NE(rendered.find("injected ENOSPC"), std::string::npos);

  // A quarantined file is durably lost data: degraded even with the
  // write path healthy.
  core::HealthSnapshot quarantine;
  quarantine.scrub_quarantined = 1;
  EXPECT_TRUE(quarantine.degraded());

  core::HealthSnapshot shard_level;
  core::ShardHealth sick;
  sick.storage_degraded = true;
  sick.storage_fault = "wal append failed";
  shard_level.shards.push_back(sick);
  EXPECT_TRUE(shard_level.degraded());
  EXPECT_NE(shard_level.ToString().find("READ-ONLY"), std::string::npos);
}

// ---------------------------------------------------------------------
// WalShipper hygiene — every build.
// ---------------------------------------------------------------------

TEST(ShipperHygieneTest, OrphanedTmpFilesAreSweptOnFirstShipOnly) {
  std::string source = TempDir("semitri_ship_sweep_src");
  std::string standby = TempDir("semitri_ship_sweep_standby");
  common::Env* env = common::Env::Default();

  // A primary with one sealed segment to ship.
  {
    store::StoreConfig config;
    config.durable_dir = source;
    store::SemanticTrajectoryStore primary(config);
    ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(1, 9, 6)).ok());
    auto sealed = primary.SealWalSegment();
    ASSERT_TRUE(sealed.ok());
    ASSERT_FALSE(sealed->empty());
  }

  // The staging leftovers of a shipper that crashed mid-copy.
  ASSERT_TRUE(env->CreateDirs(standby).ok());
  ASSERT_TRUE(
      env->WriteStringToFile(standby + "/wal-000042.log.tmp", "torn", false)
          .ok());
  ASSERT_TRUE(
      env->WriteStringToFile(standby + "/mgr.ckpt.tmp", "torn", false).ok());

  shard::WalShipper shipper(source, standby);
  auto shipped = shipper.ShipSealedSegments();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_GE(shipped->segments_shipped, 1u);
  EXPECT_EQ(shipper.tmp_orphans_removed(), 2u);
  EXPECT_FALSE(env->FileExists(standby + "/wal-000042.log.tmp"));
  EXPECT_FALSE(env->FileExists(standby + "/mgr.ckpt.tmp"));

  // The sweep runs once per shipper lifetime: a tmp appearing later
  // (a concurrent shipper's live staging file) is not ours to reap.
  ASSERT_TRUE(
      env->WriteStringToFile(standby + "/later.tmp", "live", false).ok());
  ASSERT_TRUE(shipper.ShipSealedSegments().ok());
  EXPECT_EQ(shipper.tmp_orphans_removed(), 2u);
  EXPECT_TRUE(env->FileExists(standby + "/later.tmp"));

  fs::remove_all(source);
  fs::remove_all(standby);
}

// ---------------------------------------------------------------------
// Fault-at-every-Env-site sweep.
// ---------------------------------------------------------------------

class EnvFaultSweep : public ::testing::Test {
 protected:
  void SetUp() override { common::FaultInjector::Global().Reset(); }
  void TearDown() override { common::FaultInjector::Global().Reset(); }

  // The failure shapes worth sweeping per operation; every FaultKind
  // appears at least once at the operation it models.
  static std::vector<common::FaultKind> KindsFor(const std::string& site) {
    if (site == "env:append") {
      return {common::FaultKind::kEnospc, common::FaultKind::kShortWrite};
    }
    if (site == "env:sync" || site == "env:sync_dir") {
      return {common::FaultKind::kFsyncFail};
    }
    if (site == "env:rename") return {common::FaultKind::kTornRename};
    return {common::FaultKind::kEio};
  }
};

TEST_F(EnvFaultSweep, EveryEnvSiteFaultRecoversOrDegradesLoudly) {
  common::FaultInjector& fi = common::FaultInjector::Global();

  store::SemanticTrajectoryStore reference;
  ASSERT_TRUE(RunStoreWorkload(&reference).ok());

  // Discovery: the durable workload through an engaged but unarmed
  // FaultFs registers every env: site it crosses, with hit counts.
  {
    std::string dir = TempDir("semitri_env_discover");
    common::FaultFs ffs(nullptr);
    store::StoreConfig config;
    config.durable_dir = dir;
    config.env = &ffs;
    store::SemanticTrajectoryStore durable(config);
    ASSERT_TRUE(RunStoreWorkload(&durable).ok());
    ASSERT_TRUE(durable.ContentEquals(reference));
    fs::remove_all(dir);
  }
  std::vector<std::string> env_sites;
  std::map<std::string, uint64_t> hits;
  for (const std::string& site : fi.Sites()) {
    if (site.rfind("env:", 0) != 0) continue;
    env_sites.push_back(site);
    hits[site] = fi.HitCount(site);
  }
  ASSERT_FALSE(env_sites.empty());
  // The headline operations of the durable write path must all have
  // registered — a refactor that stops routing one of them through Env
  // fails here, not silently.
  for (const char* expected :
       {"env:open", "env:append", "env:sync", "env:rename", "env:mkdir"}) {
    EXPECT_TRUE(std::find(env_sites.begin(), env_sites.end(), expected) !=
                env_sites.end())
        << "env site never fired: " << expected;
  }
  // Registry closure, mirroring recovery_test: every discovered env:
  // site must match an entry in common/fault_sites.h.
  for (const std::string& site : env_sites) {
    bool registered = false;
    for (const common::FaultSiteInfo& info : common::kFaultSites) {
      if (common::FaultSiteMatches(info, site.c_str())) {
        registered = true;
        break;
      }
    }
    EXPECT_TRUE(registered)
        << "fault site `" << site
        << "` is not in common/fault_sites.h — register it so the sweep "
           "and semitri_lint both know about it";
  }

  for (const std::string& site : env_sites) {
    std::vector<uint64_t> fire_points = {1};
    if (hits[site] / 2 > 1) fire_points.push_back(hits[site] / 2);
    for (uint64_t n : fire_points) {
      for (common::FaultKind kind : KindsFor(site)) {
        SCOPED_TRACE(site + " fault at hit " + std::to_string(n) + " kind " +
                     std::to_string(static_cast<int>(kind)));
        std::string dir = TempDir(
            "semitri_env_fault_" +
            std::to_string(std::hash<std::string>{}(
                site + std::to_string(n) +
                std::to_string(static_cast<int>(kind)))));
        fi.Reset();
        common::FaultFs ffs(nullptr);
        ffs.SetFaultKind(site, kind);
        fi.Arm(site, common::FaultPolicy::FailNth(n));
        {
          store::StoreConfig config;
          config.durable_dir = dir;
          config.env = &ffs;
          store::SemanticTrajectoryStore durable(config);
          common::Status faulted = RunStoreWorkload(&durable);
          if (faulted.ok()) {
            // The fault was absorbed (GC cleanup, best-effort dir
            // sync, ...). Absorption is only legal when nothing was
            // lost: the tables must match the clean run.
            EXPECT_TRUE(durable.ContentEquals(reference))
                << "fault at " << site << " was swallowed but the store "
                << "diverged — a silent durability lie";
          } else if (durable.storage_degraded()) {
            // Loud stance, part 1: reads still serve, writes refuse.
            EXPECT_FALSE(durable.degraded_reason().empty());
            common::Status put =
                durable.PutRawTrajectory(MakeTrajectory(900, 9, 4));
            ASSERT_FALSE(put.ok());
            EXPECT_EQ(put.code(), common::StatusCode::kUnavailable);
            // Reads stay up (possibly empty, if the fault hit before
            // the first Put landed).
            (void)durable.ListTrajectories();
          }
        }
        // "Reboot": the fault is gone, the directory is reopened
        // through a healthy Env, and the workload re-runs. Whatever
        // the fault tore — half-written frames, stranded tmp files,
        // an unflipped CURRENT — recovery must converge.
        fi.Reset();
        store::SemanticTrajectoryStore recovered;
        auto stats = recovered.Recover(dir);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        ASSERT_TRUE(RunStoreWorkload(&recovered).ok());
        EXPECT_TRUE(recovered.ContentEquals(reference))
            << "store diverged after fault at " << site << " hit " << n;
        fs::remove_all(dir);
      }
    }
  }
}

TEST_F(EnvFaultSweep, PersistentDiskFailureDegradesInsteadOfLying) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  std::string dir = TempDir("semitri_env_fault_always");
  common::FaultFs ffs(nullptr);
  ffs.SetFaultKind("env:append", common::FaultKind::kEnospc);
  store::StoreConfig config;
  config.durable_dir = dir;
  config.env = &ffs;
  store::SemanticTrajectoryStore durable(config);
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(1, 9, 6)).ok());
  ASSERT_TRUE(durable.Sync().ok());

  // The disk fills up and stays full: first failing Put degrades.
  fi.Arm("env:append", common::FaultPolicy::FailAlways());
  EXPECT_FALSE(durable.PutRawTrajectory(MakeTrajectory(2, 9, 6)).ok());
  EXPECT_TRUE(durable.storage_degraded());
  EXPECT_NE(durable.degraded_reason().find("ENOSPC"), std::string::npos);
  EXPECT_TRUE(durable.GetRawTrajectory(1).ok());

  // Space freed: one explicit rotation brings the store back.
  fi.Disarm("env:append");
  ASSERT_TRUE(durable.ExitDegradedMode().ok());
  ASSERT_TRUE(durable.PutRawTrajectory(MakeTrajectory(2, 9, 6)).ok());
  ASSERT_TRUE(durable.Sync().ok());
  store::SemanticTrajectoryStore recovered;
  ASSERT_TRUE(recovered.Recover(dir).ok());
  EXPECT_TRUE(recovered.ContentEquals(durable));
  fs::remove_all(dir);
}

TEST_F(EnvFaultSweep, FailedShipCleansItsTmpAndRetries) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  std::string source = TempDir("semitri_ship_tmp_src");
  std::string standby = TempDir("semitri_ship_tmp_standby");
  {
    store::StoreConfig config;
    config.durable_dir = source;
    store::SemanticTrajectoryStore primary(config);
    ASSERT_TRUE(primary.PutRawTrajectory(MakeTrajectory(1, 9, 6)).ok());
    ASSERT_TRUE(primary.SealWalSegment().ok());
  }

  // The copy's rename into place tears: the staged .tmp must not
  // survive as clutter the next ship trips over.
  common::FaultFs ffs(nullptr);
  ffs.SetFaultKind("env:rename", common::FaultKind::kTornRename);
  ffs.SetPathFilter(standby);
  shard::WalShipper shipper(source, standby, &ffs);
  fi.Arm("env:rename", common::FaultPolicy::FailOnce());
  EXPECT_FALSE(shipper.ShipSealedSegments().ok());
  fi.Disarm("env:rename");
  EXPECT_GE(shipper.tmp_orphans_removed(), 1u);
  auto leftover = common::Env::Default()->ListDir(standby);
  ASSERT_TRUE(leftover.ok());
  for (const std::string& name : *leftover) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "stranded staging file: " << name;
  }

  // The retry ships cleanly and the standby replays intact.
  auto shipped = shipper.ShipSealedSegments();
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_GE(shipped->segments_shipped, 1u);
  store::SemanticTrajectoryStore standby_store;
  EXPECT_TRUE(standby_store.Recover(standby).ok());
  fs::remove_all(source);
  fs::remove_all(standby);
}

}  // namespace
}  // namespace semitri
