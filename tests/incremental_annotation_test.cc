// Incremental live annotation: the store's append records and the
// session's incremental passes.
//
// Store side: an append record truncates the stored entry to its start
// index and appends, so replaying one over a checkpoint that already
// holds its rows converges, and a start past the stored length is
// rejected (FailedPrecondition live, Corruption on replay).
//
// Session side: a long many-episode taxi shift fed fix by fix into a
// durable store must end ContentEquals to the offline pipeline with WAL
// bytes linear in the trajectory (at most 1.5x offline's), the live
// view after every pass must equal a from-scratch annotation of the
// prefix, and sessions restored or adopted mid-trajectory (whose
// watermarks restart at zero) must still finalize to the offline store.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "core/pipeline.h"
#include "core/state_serialization.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "store/semantic_trajectory_store.h"
#include "store/wal.h"
#include "stream/annotation_session.h"
#include "stream/session_manager.h"

namespace semitri {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

core::RawTrajectory Trajectory(core::TrajectoryId id, int n, double shift) {
  core::RawTrajectory t;
  t.id = id;
  t.object_id = 7;
  for (int i = 0; i < n; ++i) {
    t.points.push_back({{i * 2.0 + shift, i * 3.0}, i * 10.0});
  }
  return t;
}

std::vector<core::Episode> Episodes(int n) {
  std::vector<core::Episode> out;
  for (int i = 0; i < n; ++i) {
    core::Episode e;
    e.kind = i % 2 == 0 ? core::EpisodeKind::kStop : core::EpisodeKind::kMove;
    e.begin = static_cast<size_t>(i) * 4;
    e.end = e.begin + 4;
    e.time_in = i * 40.0;
    e.time_out = i * 40.0 + 30.0;
    e.center = {i * 1.0, i * 2.0};
    e.bounds = geo::BoundingBox({0.0, 0.0}, {i + 1.0, i + 2.0});
    out.push_back(e);
  }
  return out;
}

core::StructuredSemanticTrajectory Interpretation(core::TrajectoryId id,
                                                  int n,
                                                  const std::string& tag) {
  core::StructuredSemanticTrajectory t;
  t.trajectory_id = id;
  t.object_id = 7;
  t.interpretation = "point";
  for (int i = 0; i < n; ++i) {
    core::SemanticEpisode ep;
    ep.kind = core::EpisodeKind::kStop;
    ep.place = {core::PlaceKind::kPoint, i};
    ep.time_in = i;
    ep.time_out = i + 0.5;
    ep.source_episode = static_cast<size_t>(i);
    ep.AddAnnotation("poi_category", tag);
    t.episodes.push_back(ep);
  }
  return t;
}

void ExpectRecoversToStore(const std::string& dir,
                           const store::SemanticTrajectoryStore& want) {
  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(recovered.ContentEquals(want));
}

// --- store append records -----------------------------------------------

TEST(StoreAppendTest, AppendTruncatesToStartThenAppends) {
  store::SemanticTrajectoryStore store;
  ASSERT_TRUE(store.PutRawTrajectory(Trajectory(1, 10, 0.0)).ok());
  // Rows [0, 8) match the stored ones; rows from 8 on are new content.
  core::RawTrajectory grown = Trajectory(1, 15, 0.0);
  for (size_t i = 8; i < grown.points.size(); ++i) {
    grown.points[i].position.x += 100.0;
  }
  ASSERT_TRUE(store.AppendRawPoints(grown, 8).ok());
  EXPECT_EQ(*store.GetRawTrajectory(1), grown);
  EXPECT_EQ(store.num_gps_records(), 15u);

  ASSERT_TRUE(store.PutEpisodes(1, Episodes(3)).ok());
  ASSERT_TRUE(store.AppendEpisodes(1, Episodes(5), 3).ok());
  EXPECT_EQ(*store.GetEpisodes(1), Episodes(5));
  EXPECT_EQ(store.num_episodes(), 5u);

  ASSERT_TRUE(store.PutInterpretation(Interpretation(1, 4, "old")).ok());
  core::StructuredSemanticTrajectory rewritten = Interpretation(1, 6, "new");
  for (size_t i = 0; i < 2; ++i) {
    rewritten.episodes[i] = Interpretation(1, 4, "old").episodes[i];
  }
  ASSERT_TRUE(store.AppendInterpretation(rewritten, 2).ok());
  EXPECT_EQ(*store.GetInterpretation(1, "point"), rewritten);
  EXPECT_EQ(store.num_semantic_episodes(), 6u);
}

TEST(StoreAppendTest, AppendAtZeroCreatesAbsentEntry) {
  store::SemanticTrajectoryStore store;
  ASSERT_TRUE(store.AppendRawPoints(Trajectory(4, 3, 0.0), 0).ok());
  ASSERT_TRUE(store.AppendEpisodes(4, Episodes(2), 0).ok());
  ASSERT_TRUE(store.AppendInterpretation(Interpretation(4, 2, "x"), 0).ok());
  store::SemanticTrajectoryStore put;
  ASSERT_TRUE(put.PutRawTrajectory(Trajectory(4, 3, 0.0)).ok());
  ASSERT_TRUE(put.PutEpisodes(4, Episodes(2)).ok());
  ASSERT_TRUE(put.PutInterpretation(Interpretation(4, 2, "x")).ok());
  EXPECT_TRUE(store.ContentEquals(put));
}

TEST(StoreAppendTest, StartPastStoredLengthIsRejectedAndNotLogged) {
  std::string dir = TempDir("semitri_append_reject");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore store(config);
  ASSERT_TRUE(store.PutRawTrajectory(Trajectory(1, 4, 0.0)).ok());
  ASSERT_TRUE(store.Sync().ok());
  const uintmax_t logged = fs::file_size(dir + "/wal.log");

  common::Status gap = store.AppendRawPoints(Trajectory(1, 9, 0.0), 6);
  EXPECT_EQ(gap.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.AppendEpisodes(1, Episodes(3), 1).code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      store.AppendInterpretation(Interpretation(1, 3, "x"), 2).code(),
      common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.AppendRawPoints(Trajectory(1, 2, 0.0), 3).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(store.num_gps_records(), 4u);
  EXPECT_FALSE(store.storage_degraded());
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), logged);
  fs::remove_all(dir);
}

TEST(StoreAppendTest, ReplayOverCheckpointHoldingTheRecordsContentEquals) {
  std::string dir = TempDir("semitri_append_replay");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore store(config);
  // A live session's write pattern: full puts, then appends from the
  // watermark, with the point layer rewritten from its first change.
  ASSERT_TRUE(store.PutRawTrajectory(Trajectory(1, 5, 0.0)).ok());
  ASSERT_TRUE(store.AppendRawPoints(Trajectory(1, 12, 0.0), 5).ok());
  ASSERT_TRUE(store.AppendRawPoints(Trajectory(1, 20, 0.0), 12).ok());
  ASSERT_TRUE(store.PutEpisodes(1, Episodes(2)).ok());
  ASSERT_TRUE(store.AppendEpisodes(1, Episodes(4), 2).ok());
  ASSERT_TRUE(store.PutInterpretation(Interpretation(1, 3, "a")).ok());
  core::StructuredSemanticTrajectory point = Interpretation(1, 5, "b");
  point.episodes[0] = Interpretation(1, 3, "a").episodes[0];
  ASSERT_TRUE(store.AppendInterpretation(point, 1).ok());
  ASSERT_TRUE(store.Sync().ok());
  const std::string log = ReadFile(dir + "/wal.log");

  // Crash between the CURRENT flip and the log truncation: the new
  // checkpoint holds every row, and the whole log replays over it.
  ASSERT_TRUE(store.Checkpoint().ok());
  WriteFile(dir + "/wal.log", log);

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->checkpoint_loaded);
  EXPECT_EQ(stats->wal_records_replayed, 7u);
  EXPECT_TRUE(recovered.ContentEquals(store));
  EXPECT_EQ(recovered.num_gps_records(), 20u);
  EXPECT_EQ(recovered.num_semantic_episodes(), 5u);
  fs::remove_all(dir);
}

TEST(StoreAppendTest, ReplayOverCheckpointAfterShrinkingPutContentEquals) {
  std::string dir = TempDir("semitri_append_shrink");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore store(config);
  ASSERT_TRUE(store.PutRawTrajectory(Trajectory(1, 10, 0.0)).ok());
  ASSERT_TRUE(store.PutInterpretation(Interpretation(1, 2, "a")).ok());
  ASSERT_TRUE(store.Checkpoint().ok());  // the log now starts mid-entry
  // Appends grow both entries; then a session restored from an older
  // checkpoint re-puts shorter prefixes and appends from there.
  ASSERT_TRUE(store.AppendRawPoints(Trajectory(1, 20, 0.0), 10).ok());
  ASSERT_TRUE(store.AppendInterpretation(Interpretation(1, 7, "a"), 2).ok());
  ASSERT_TRUE(store.PutRawTrajectory(Trajectory(1, 6, 0.0)).ok());
  ASSERT_TRUE(store.AppendRawPoints(Trajectory(1, 8, 0.0), 6).ok());
  ASSERT_TRUE(store.PutInterpretation(Interpretation(1, 1, "a")).ok());
  ASSERT_TRUE(store.Sync().ok());
  const std::string log = ReadFile(dir + "/wal.log");

  // Over the newer checkpoint (8 points, 1 semantic episode) the first
  // appends start past the stored rows; the later full puts in the same
  // log rewrite both entries, so replay still converges.
  ASSERT_TRUE(store.Checkpoint().ok());
  WriteFile(dir + "/wal.log", log);
  ExpectRecoversToStore(dir, store);
  fs::remove_all(dir);
}

TEST(StoreAppendTest, ReplayRejectsStartPastStoredLength) {
  for (store::WalRecordType type : {store::WalRecordType::kAppendRawPoints,
                                    store::WalRecordType::kAppendEpisodes,
                                    store::WalRecordType::kAppendInterpretation}) {
    SCOPED_TRACE(static_cast<int>(type));
    std::string dir = TempDir("semitri_append_gap");
    fs::create_directories(dir);
    common::StateWriter payload;
    switch (type) {
      case store::WalRecordType::kAppendRawPoints:
        payload.PutU64(3);  // start, but nothing is stored
        core::SaveState(Trajectory(1, 2, 0.0), &payload);
        break;
      case store::WalRecordType::kAppendEpisodes:
        payload.PutI64(1);
        payload.PutU64(3);
        core::SaveState(Episodes(2), &payload);
        break;
      default:
        payload.PutU64(3);
        core::SaveState(Interpretation(1, 2, "x"), &payload);
        break;
    }
    {
      auto writer = store::WalWriter::Open(dir + "/wal.log");
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->Append(type, payload.data()).ok());
      ASSERT_TRUE((*writer)->Sync().ok());
    }
    store::SemanticTrajectoryStore recovered;
    auto stats = recovered.Recover(dir);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), common::StatusCode::kCorruption);
    fs::remove_all(dir);
  }
}

TEST(StoreRecoverTest, SealedSegmentRecordsAreCounted) {
  std::string dir = TempDir("semitri_recover_sealed_count");
  store::StoreConfig config;
  config.durable_dir = dir;
  store::SemanticTrajectoryStore store(config);
  const size_t kSealed = 3;
  const size_t kActive = 2;
  for (size_t i = 0; i < kSealed; ++i) {
    ASSERT_TRUE(store.PutRawTrajectory(Trajectory(i, 4, 0.0)).ok());
  }
  auto sealed = store.SealWalSegment();
  ASSERT_TRUE(sealed.ok());
  ASSERT_FALSE(sealed->empty());
  for (size_t i = 0; i < kActive; ++i) {
    ASSERT_TRUE(store.PutRawTrajectory(Trajectory(10 + i, 4, 0.0)).ok());
  }
  ASSERT_TRUE(store.Sync().ok());

  store::SemanticTrajectoryStore recovered;
  auto stats = recovered.Recover(dir);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->wal_records_replayed, kSealed + kActive);
  EXPECT_EQ(stats->wal_segments_replayed, 1u);
  EXPECT_TRUE(recovered.ContentEquals(store));
  fs::remove_all(dir);
}

// --- incremental sessions ------------------------------------------------

class IncrementalSessionFixture : public ::testing::Test {
 protected:
  static constexpr core::ObjectId kTaxi = 3;

  void SetUp() override {
    datagen::WorldConfig wc;
    wc.seed = 73;
    wc.extent_meters = 3000.0;
    wc.num_pois = 400;
    world_ = std::make_unique<datagen::World>(
        datagen::WorldGenerator(wc).Generate());
    datagen::DatasetFactory factory(world_.get(), 74);
    // One long 1 s taxi shift: many episodes per trajectory, the worst
    // case of a per-episode re-annotation of the prefix.
    fixes_ = factory.LausanneTaxis(/*num_taxis=*/1, /*num_days=*/1,
                                   /*shift_hours=*/6.0)
                 .tracks.front()
                 .points;
  }

  std::unique_ptr<core::SemiTriPipeline> Pipeline(
      store::SemanticTrajectoryStore* store) {
    return std::make_unique<core::SemiTriPipeline>(
        &world_->regions, &world_->roads, &world_->pois,
        core::PipelineConfig{}, store);
  }

  static store::StoreConfig Durable(const std::string& dir) {
    store::StoreConfig config;
    config.durable_dir = dir;
    return config;
  }

  void RunOffline(store::SemanticTrajectoryStore* store,
                  core::TrajectoryId first_id = 0) {
    auto results = Pipeline(store)->ProcessStream(kTaxi, fixes_, first_id);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_TRUE(store->Sync().ok());
  }

  // Feeds fixes until the open trajectory has had `passes` provisional
  // passes; returns the index of the first unfed fix.
  static size_t FeedUntilPasses(stream::AnnotationSession* session,
                                const std::vector<core::GpsPoint>& fixes,
                                size_t passes) {
    size_t i = 0;
    while (i < fixes.size() && session->stats().annotation_passes < passes) {
      EXPECT_TRUE(session->Feed(fixes[i++]).ok());
    }
    EXPECT_TRUE(session->has_open_state());
    return i;
  }

  std::unique_ptr<datagen::World> world_;
  std::vector<core::GpsPoint> fixes_;
};

TEST_F(IncrementalSessionFixture, LongShiftMatchesOfflineWithLinearWal) {
  std::string offline_dir = TempDir("semitri_incr_offline");
  store::SemanticTrajectoryStore offline(Durable(offline_dir));
  RunOffline(&offline);
  const uintmax_t offline_bytes = fs::file_size(offline_dir + "/wal.log");

  std::string live_dir = TempDir("semitri_incr_live");
  store::SemanticTrajectoryStore live(Durable(live_dir));
  auto pipeline = Pipeline(&live);
  stream::AnnotationSession session(pipeline.get(), kTaxi);
  for (const core::GpsPoint& fix : fixes_) {
    ASSERT_TRUE(session.Feed(fix).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  ASSERT_TRUE(live.Sync().ok());
  const uintmax_t live_bytes = fs::file_size(live_dir + "/wal.log");

  EXPECT_GE(session.stats().annotation_passes, 10u);
  EXPECT_TRUE(live.ContentEquals(offline));
  EXPECT_LE(static_cast<double>(live_bytes),
            1.5 * static_cast<double>(offline_bytes))
      << "live " << live_bytes << " B vs offline " << offline_bytes << " B";
  ExpectRecoversToStore(live_dir, offline);
  fs::remove_all(offline_dir);
  fs::remove_all(live_dir);
}

TEST_F(IncrementalSessionFixture, LiveViewEqualsFromScratchAnnotation) {
  // Reference annotator without a store: the provisional layers after
  // every incremental pass must equal a full annotation of the prefix.
  auto reference = Pipeline(nullptr);
  auto pipeline = Pipeline(nullptr);
  stream::AnnotationSession session(pipeline.get(), kTaxi);
  size_t passes_checked = 0;
  for (const core::GpsPoint& fix : fixes_) {
    auto fed = session.Feed(fix);
    ASSERT_TRUE(fed.ok());
    if (fed->episodes_closed == 0 || fed->trajectory_closed) continue;
    core::PipelineResult prefix;
    prefix.cleaned = session.partial().cleaned;
    prefix.episodes = session.partial().episodes;
    auto full = reference->AnnotateComputed(std::move(prefix));
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(session.partial().region_layer, full->region_layer);
    EXPECT_EQ(session.partial().line_layer, full->line_layer);
    EXPECT_EQ(session.partial().point_layer, full->point_layer);
    ++passes_checked;
  }
  EXPECT_GE(passes_checked, 10u);
}

TEST_F(IncrementalSessionFixture, RestoredMidTrajectoryFinalizesToOffline) {
  store::SemanticTrajectoryStore offline;
  RunOffline(&offline);

  std::string dir = TempDir("semitri_incr_restore");
  store::SemanticTrajectoryStore live(Durable(dir));
  std::string blob;
  size_t next = 0;
  {
    auto pipeline = Pipeline(&live);
    stream::AnnotationSession session(pipeline.get(), kTaxi);
    next = FeedUntilPasses(&session, fixes_, 4);
    common::StateWriter w;
    session.SaveState(&w);
    blob = w.Release();
    // Feed on past the checkpoint, as a process would before dying:
    // the store then holds rows the restored session knows nothing of.
    for (size_t i = next; i < next + 600 && i < fixes_.size(); ++i) {
      ASSERT_TRUE(session.Feed(fixes_[i]).ok());
    }
  }
  auto pipeline = Pipeline(&live);
  stream::AnnotationSession session(pipeline.get(), kTaxi);
  common::StateReader r(blob);
  ASSERT_TRUE(session.RestoreState(&r).ok());
  for (size_t i = next; i < fixes_.size(); ++i) {
    ASSERT_TRUE(session.Feed(fixes_[i]).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  ASSERT_TRUE(live.Sync().ok());
  EXPECT_TRUE(live.ContentEquals(offline));
  ExpectRecoversToStore(dir, offline);
  fs::remove_all(dir);
}

TEST_F(IncrementalSessionFixture, AdoptedMidTrajectoryFinalizesToOffline) {
  stream::SessionManagerConfig config;
  const core::TrajectoryId first_id = kTaxi * config.ids_per_object;
  store::SemanticTrajectoryStore offline;
  RunOffline(&offline, first_id);

  std::string source_dir = TempDir("semitri_incr_source");
  std::string dest_dir = TempDir("semitri_incr_dest");
  store::SemanticTrajectoryStore source_store(Durable(source_dir));
  store::SemanticTrajectoryStore dest_store(Durable(dest_dir));
  auto source_pipeline = Pipeline(&source_store);
  auto dest_pipeline = Pipeline(&dest_store);
  stream::SessionManager source(source_pipeline.get(), config);
  stream::SessionManager dest(dest_pipeline.get(), config);

  // Migrate once the open trajectory has had a few provisional passes.
  size_t next = 0;
  while (next < fixes_.size() &&
         source.stats().annotation_passes < 4) {
    ASSERT_TRUE(source.Feed(kTaxi, fixes_[next++]).ok());
  }
  common::StateWriter packed;
  ASSERT_TRUE(source.PackSession(kTaxi, &packed).ok());
  common::StateReader in(packed.data());
  ASSERT_TRUE(dest.AdoptSession(kTaxi, &in).ok());
  ASSERT_TRUE(source.Close(kTaxi).ok());  // drain: truncated final rows
  for (size_t i = next; i < fixes_.size(); ++i) {
    ASSERT_TRUE(dest.Feed(kTaxi, fixes_[i]).ok());
  }
  ASSERT_TRUE(dest.CloseAll().ok());
  ASSERT_TRUE(dest_store.Sync().ok());

  // Merge as the cluster does: the later owner wins every trajectory
  // both stores hold.
  store::SemanticTrajectoryStore merged;
  for (const store::SemanticTrajectoryStore* from :
       {&source_store, &dest_store}) {
    for (core::TrajectoryId id : from->ListTrajectories()) {
      ASSERT_TRUE(merged.PutRawTrajectory(*from->GetRawTrajectory(id)).ok());
      ASSERT_TRUE(merged.PutEpisodes(id, *from->GetEpisodes(id)).ok());
      for (const std::string& name : from->ListInterpretations(id)) {
        ASSERT_TRUE(
            merged.PutInterpretation(*from->GetInterpretation(id, name)).ok());
      }
    }
  }
  EXPECT_TRUE(merged.ContentEquals(offline));
  ExpectRecoversToStore(dest_dir, dest_store);
  fs::remove_all(source_dir);
  fs::remove_all(dest_dir);
}

}  // namespace
}  // namespace semitri
