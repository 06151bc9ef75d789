// Streaming checkpoint/restore tests: a serialized EpisodeDetector /
// AnnotationSession / SessionManager resumes mid-stream and produces —
// bit for bit — the output an uninterrupted run would have produced,
// including the final semantic trajectory store state.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/serial.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "store/semantic_trajectory_store.h"
#include "store/wal.h"
#include "stream/annotation_session.h"
#include "stream/episode_detector.h"
#include "stream/session_manager.h"

namespace semitri::stream {
namespace {

namespace fs = std::filesystem;

class CheckpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WorldConfig wc;
    wc.seed = 57;
    wc.extent_meters = 3000.0;
    wc.num_pois = 400;
    world_ = std::make_unique<datagen::World>(
        datagen::WorldGenerator(wc).Generate());
    factory_ = std::make_unique<datagen::DatasetFactory>(world_.get(), 58);
  }

  std::vector<core::GpsPoint> PersonStream(int index, int days) {
    datagen::PersonSpec spec = factory_->MakePersonSpec(index);
    return factory_->SimulatePersonDays(index, spec, days).points;
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
  std::unique_ptr<datagen::DatasetFactory> factory_;
  std::shared_ptr<const core::AnnotationModel> model_;
};

// Drains `stream` through `detector` collecting every closed
// trajectory.
std::vector<ClosedTrajectory> DrainDetector(
    EpisodeDetector* detector, const std::vector<core::GpsPoint>& stream,
    size_t start = 0) {
  std::vector<ClosedTrajectory> closed;
  DetectorEvents events;
  for (size_t i = start; i < stream.size(); ++i) {
    detector->Feed(stream[i], &events);
    if (events.closed_trajectory.has_value()) {
      closed.push_back(*events.closed_trajectory);
    }
  }
  detector->Close(&events);
  if (events.closed_trajectory.has_value()) {
    closed.push_back(*events.closed_trajectory);
  }
  return closed;
}

TEST_F(CheckpointFixture, DetectorResumesBitIdentical) {
  std::vector<core::GpsPoint> stream = PersonStream(0, 2);
  ASSERT_GT(stream.size(), 100u);
  EpisodeDetectorConfig config;

  // Uninterrupted reference.
  EpisodeDetector reference(0, config);
  std::vector<ClosedTrajectory> expected = DrainDetector(&reference, stream);
  ASSERT_FALSE(expected.empty());

  // Checkpoint mid-stream (deliberately mid-trajectory, not at a split
  // boundary), restore into a fresh detector, resume.
  size_t cut = stream.size() / 2;
  EpisodeDetector first(0, config);
  std::vector<ClosedTrajectory> closed_before;
  DetectorEvents events;
  for (size_t i = 0; i < cut; ++i) {
    first.Feed(stream[i], &events);
    if (events.closed_trajectory.has_value()) {
      closed_before.push_back(*events.closed_trajectory);
    }
  }
  common::StateWriter w;
  first.SaveState(&w);
  std::string blob = w.Release();

  EpisodeDetector resumed(0, config);
  common::StateReader r(blob);
  ASSERT_TRUE(resumed.RestoreState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  std::vector<ClosedTrajectory> closed_after =
      DrainDetector(&resumed, stream, cut);

  std::vector<ClosedTrajectory> combined = closed_before;
  combined.insert(combined.end(), closed_after.begin(), closed_after.end());
  ASSERT_EQ(combined.size(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(combined[t].cleaned, expected[t].cleaned)
        << "cleaned trace mismatch, trajectory " << t;
    EXPECT_EQ(combined[t].episodes, expected[t].episodes)
        << "episode table mismatch, trajectory " << t;
  }
  EXPECT_EQ(resumed.stats().trajectories_closed,
            reference.stats().trajectories_closed);
  EXPECT_EQ(resumed.stats().points_fed, reference.stats().points_fed);
}

TEST_F(CheckpointFixture, DetectorRestoreRejectsWrongObject) {
  EpisodeDetector a(1, EpisodeDetectorConfig{});
  common::StateWriter w;
  a.SaveState(&w);
  std::string blob = w.Release();
  EpisodeDetector b(2, EpisodeDetectorConfig{});
  common::StateReader r(blob);
  EXPECT_EQ(b.RestoreState(&r).code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointFixture, DetectorRestoreRejectsTruncatedBlob) {
  std::vector<core::GpsPoint> stream = PersonStream(1, 1);
  EpisodeDetector a(1, EpisodeDetectorConfig{});
  DetectorEvents events;
  for (size_t i = 0; i < std::min<size_t>(stream.size(), 200); ++i) {
    a.Feed(stream[i], &events);
  }
  common::StateWriter w;
  a.SaveState(&w);
  std::string blob = w.Release();
  ASSERT_GT(blob.size(), 16u);
  std::string truncated = blob.substr(0, blob.size() / 2);
  EpisodeDetector b(1, EpisodeDetectorConfig{});
  common::StateReader r(truncated);
  EXPECT_FALSE(b.RestoreState(&r).ok());
}

TEST_F(CheckpointFixture, SessionResumesToExactStoreState) {
  std::vector<core::GpsPoint> stream = PersonStream(0, 2);

  // Uninterrupted session -> reference store.
  store::SemanticTrajectoryStore reference_store;
  {
    core::SemiTriPipeline pipeline(Model(), &reference_store);
    AnnotationSession session(&pipeline, 0);
    for (const core::GpsPoint& fix : stream) {
      ASSERT_TRUE(session.Feed(fix).ok());
    }
    ASSERT_TRUE(session.Flush().ok());
  }

  // Interrupted session: feed half, checkpoint, restore into a fresh
  // session over a *new* pipeline (same config/world/store), resume.
  store::SemanticTrajectoryStore store;
  size_t cut = stream.size() / 2;
  std::string blob;
  size_t passes_at_cut = 0;
  {
    core::SemiTriPipeline pipeline(Model(), &store);
    AnnotationSession session(&pipeline, 0);
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(session.Feed(stream[i]).ok());
    }
    passes_at_cut = session.stats().annotation_passes;
    common::StateWriter w;
    session.SaveState(&w);
    blob = w.Release();
  }  // first process "exits"
  {
    core::SemiTriPipeline pipeline(Model(), &store);
    AnnotationSession session(&pipeline, 0);
    common::StateReader r(blob);
    ASSERT_TRUE(session.RestoreState(&r).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(session.stats().annotation_passes, passes_at_cut);
    for (size_t i = cut; i < stream.size(); ++i) {
      ASSERT_TRUE(session.Feed(stream[i]).ok());
    }
    ASSERT_TRUE(session.Flush().ok());
  }
  EXPECT_TRUE(store.ContentEquals(reference_store));
}

TEST_F(CheckpointFixture, SessionRestoreRejectsWrongObject) {
  core::SemiTriPipeline pipeline(Model());
  AnnotationSession a(&pipeline, 5);
  common::StateWriter w;
  a.SaveState(&w);
  std::string blob = w.Release();
  AnnotationSession b(&pipeline, 6);
  common::StateReader r(blob);
  EXPECT_EQ(b.RestoreState(&r).code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointFixture, ManagerCheckpointRestoreResumes) {
  // Two-object interleaved feed, cut mid-stream.
  std::vector<core::GpsPoint> s0 = PersonStream(0, 2);
  std::vector<core::GpsPoint> s1 = PersonStream(1, 2);
  auto feed_range = [&](SessionManager& manager, size_t from, size_t to) {
    size_t longest = std::max(s0.size(), s1.size());
    size_t index = 0;
    for (size_t k = 0; k < longest; ++k) {
      for (core::ObjectId object = 0; object < 2; ++object) {
        const std::vector<core::GpsPoint>& s = object == 0 ? s0 : s1;
        if (k >= s.size()) continue;
        if (index >= from && index < to) {
          auto fed = manager.Feed(object, s[k]);
          ASSERT_TRUE(fed.ok()) << fed.status().ToString();
        }
        ++index;
      }
    }
  };
  size_t total = s0.size() + s1.size();
  size_t cut = total / 2;

  store::SemanticTrajectoryStore reference_store;
  {
    core::SemiTriPipeline pipeline(Model(), &reference_store);
    SessionManager manager(&pipeline);
    feed_range(manager, 0, total);
    ASSERT_TRUE(manager.CloseAll().ok());
  }

  std::string ckpt =
      (fs::temp_directory_path() / "semitri_manager_ckpt.bin").string();
  fs::remove(ckpt);
  store::SemanticTrajectoryStore store;
  SessionManager::Stats stats_at_cut;
  {
    core::SemiTriPipeline pipeline(Model(), &store);
    SessionManager manager(&pipeline);
    feed_range(manager, 0, cut);
    stats_at_cut = manager.stats();
    ASSERT_TRUE(manager.Checkpoint(ckpt).ok());
  }  // process "exits" with live sessions
  {
    core::SemiTriPipeline pipeline(Model(), &store);
    SessionManager manager(&pipeline);
    ASSERT_TRUE(manager.Restore(ckpt).ok());
    EXPECT_EQ(manager.ActiveSessions(), stats_at_cut.active_sessions);
    SessionManager::Stats restored = manager.stats();
    EXPECT_EQ(restored.points_fed, stats_at_cut.points_fed);
    EXPECT_EQ(restored.sessions_opened, stats_at_cut.sessions_opened);
    EXPECT_EQ(restored.annotation_passes, stats_at_cut.annotation_passes);
    feed_range(manager, cut, total);
    ASSERT_TRUE(manager.CloseAll().ok());
  }
  EXPECT_TRUE(store.ContentEquals(reference_store));
  fs::remove(ckpt);
}

TEST_F(CheckpointFixture, ManagerRestoreRejectsCorruptFile) {
  core::SemiTriPipeline pipeline(Model());
  std::string ckpt =
      (fs::temp_directory_path() / "semitri_manager_corrupt.bin").string();
  {
    SessionManager manager(&pipeline);
    std::vector<core::GpsPoint> s = PersonStream(0, 1);
    for (size_t i = 0; i < std::min<size_t>(s.size(), 300); ++i) {
      ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    }
    ASSERT_TRUE(manager.Checkpoint(ckpt).ok());
  }
  // Flip one payload byte: the CRC frame must reject the file.
  {
    std::fstream f(ckpt, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char c = 0;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x01));
  }
  SessionManager manager(&pipeline);
  EXPECT_EQ(manager.Restore(ckpt).code(), common::StatusCode::kCorruption);
  fs::remove(ckpt);
}

TEST_F(CheckpointFixture, ManagerRestoreAcceptsExactlyOneCheckpointFrame) {
  core::SemiTriPipeline pipeline(Model());
  std::string ckpt =
      (fs::temp_directory_path() / "semitri_manager_frames.bin").string();
  {
    SessionManager manager(&pipeline);
    std::vector<core::GpsPoint> s = PersonStream(0, 1);
    for (size_t i = 0; i < std::min<size_t>(s.size(), 300); ++i) {
      ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    }
    ASSERT_TRUE(manager.Checkpoint(ckpt).ok());
  }
  std::string intact;
  {
    std::ifstream in(ckpt, std::ios::binary);
    intact.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  // The file is one session-checkpoint WAL frame, and nothing else.
  std::string payload;
  size_t frames = 0;
  auto decoded = store::DecodeWalFrames(
      intact, [&](store::WalRecordType type, std::string_view body) {
        EXPECT_EQ(type, store::WalRecordType::kSessionCheckpoint);
        payload = std::string(body);
        ++frames;
        return common::Status::OK();
      });
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, intact.size());
  ASSERT_EQ(frames, 1u);

  // A second intact frame after the first, a torn tail after it, and
  // the one frame retyped as a store record.
  std::string doubled = intact;
  store::AppendWalFrame(store::WalRecordType::kSessionCheckpoint, payload,
                        &doubled);
  std::string torn_tail = intact + std::string(5, '\x07');
  std::string retyped;
  store::AppendWalFrame(store::WalRecordType::kRawPoints, payload, &retyped);
  for (const std::string& bytes : {doubled, torn_tail, retyped}) {
    {
      std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    SessionManager manager(&pipeline);
    EXPECT_EQ(manager.Restore(ckpt).code(), common::StatusCode::kCorruption);
  }

  // An unreadable file is an IoError, not Corruption.
  fs::remove(ckpt);
  SessionManager manager(&pipeline);
  EXPECT_EQ(manager.Restore(ckpt).code(), common::StatusCode::kIoError);
}

TEST_F(CheckpointFixture, FailedRestoreLeavesManagerUnchanged) {
  core::SemiTriPipeline pipeline(Model());
  std::string ckpt =
      (fs::temp_directory_path() / "semitri_manager_failed_restore.bin")
          .string();
  {
    SessionManager source(&pipeline);
    std::vector<core::GpsPoint> s = PersonStream(0, 1);
    for (size_t i = 0; i < std::min<size_t>(s.size(), 300); ++i) {
      ASSERT_TRUE(source.Feed(0, s[i]).ok());
    }
    ASSERT_TRUE(source.Checkpoint(ckpt).ok());
  }
  std::string payload;
  {
    std::ifstream in(ckpt, std::ios::binary);
    std::string intact((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    auto decoded = store::DecodeWalFrames(
        intact, [&](store::WalRecordType, std::string_view body) {
          payload = std::string(body);
          return common::Status::OK();
        });
    ASSERT_TRUE(decoded.ok());
  }
  // The payload is ten u64 counters, the resume-cursor count (0 here),
  // the live-session count (1), then object 0's id and state.
  constexpr size_t kLiveCountAt = 11 * 8;
  ASSERT_GT(payload.size(), kLiveCountAt + 8);
  const std::string session = payload.substr(kLiveCountAt + 8);
  common::StateWriter two;
  two.PutU64(2);
  // Re-framed payloads whose frame CRC holds but whose state does not:
  // a good checkpoint of object 0 plus one stray byte, and object 0's
  // session twice.
  const std::string stray = payload + '\x01';
  const std::string doubled =
      payload.substr(0, kLiveCountAt) + two.data() + session + session;
  std::vector<core::GpsPoint> s = PersonStream(1, 1);
  for (const std::string& bad : {stray, doubled}) {
    std::string bytes;
    store::AppendWalFrame(store::WalRecordType::kSessionCheckpoint, bad,
                          &bytes);
    {
      std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    SessionManager target(&pipeline);
    for (size_t i = 0; i < 50; ++i) ASSERT_TRUE(target.Feed(7, s[i]).ok());
    SessionManager::Stats before = target.stats();

    EXPECT_EQ(target.Restore(ckpt).code(), common::StatusCode::kCorruption);
    EXPECT_TRUE(target.HasLiveSession(7));
    EXPECT_FALSE(target.HasLiveSession(0));
    SessionManager::Stats after = target.stats();
    EXPECT_EQ(after.active_sessions, before.active_sessions);
    EXPECT_EQ(after.points_fed, before.points_fed);
    EXPECT_EQ(after.buffered_fixes, before.buffered_fixes);
    EXPECT_EQ(after.sessions_restored, 0u);
    // Object 7 keeps feeding where it stopped.
    EXPECT_TRUE(target.Feed(7, s[50]).ok());
  }
  fs::remove(ckpt);
}

TEST_F(CheckpointFixture, CleanEvictionHasNoDataLoss) {
  store::SemanticTrajectoryStore store;
  core::SemiTriPipeline pipeline(Model(), &store);
  SessionManager manager(&pipeline);
  std::vector<core::GpsPoint> s = PersonStream(0, 1);
  for (const core::GpsPoint& fix : s) {
    ASSERT_TRUE(manager.Feed(0, fix).ok());
  }
  // Idle eviction goes through the flushing Close path: the open
  // trajectory is finalized, nothing is lost.
  auto evicted = manager.EvictIdle(0.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 1u);
  SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.evictions_with_data_loss, 0u);
  EXPECT_GT(store.num_trajectories(), 0u);
}

TEST_F(CheckpointFixture, EvictionWithFailingFlushCountsDataLoss) {
  common::FaultInjector& fi = common::FaultInjector::Global();
  fi.Reset();
  store::SemanticTrajectoryStore store;
  core::SemiTriPipeline pipeline(Model(), &store);
  SessionManager manager(&pipeline);
  std::vector<core::GpsPoint> s = PersonStream(0, 1);
  for (const core::GpsPoint& fix : s) {
    ASSERT_TRUE(manager.Feed(0, fix).ok());
  }
  // The finalization pass fails (e.g. the store's disk is gone): the
  // eviction still happens, but the open trajectory's rows are lost and
  // the Stats say so.
  fi.Arm(std::string("stage:") + core::kStageLanduseJoin,
         common::FaultPolicy::FailAlways());
  auto evicted = manager.EvictIdle(0.0);
  fi.Reset();
  EXPECT_FALSE(evicted.ok());  // the flush failure is reported
  SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.evictions_with_data_loss, 1u);
  EXPECT_EQ(manager.ActiveSessions(), 0u);
}

// Regression: an idle-evicted object that reconnects must RESUME its
// trajectory-id block past the rows its retired session already
// finalized — not restart at object_id * ids_per_object and overwrite
// them. The reference is the same stream with an explicit flushing
// Close at the cut, which is exactly what an eviction does.
TEST_F(CheckpointFixture, EvictedObjectReconnectsWithoutOverwriting) {
  std::vector<core::GpsPoint> s = PersonStream(0, 2);
  size_t cut = s.size() / 2;

  store::SemanticTrajectoryStore reference_store;
  {
    core::SemiTriPipeline pipeline(Model(), &reference_store);
    SessionManager manager(&pipeline);
    for (size_t i = 0; i < cut; ++i) ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    ASSERT_TRUE(manager.Close(0).ok());
    for (size_t i = cut; i < s.size(); ++i) {
      ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    }
    ASSERT_TRUE(manager.CloseAll().ok());
  }

  store::SemanticTrajectoryStore store;
  core::SemiTriPipeline pipeline(Model(), &store);
  SessionManager manager(&pipeline);
  for (size_t i = 0; i < cut; ++i) ASSERT_TRUE(manager.Feed(0, s[i]).ok());
  auto evicted = manager.EvictIdle(0.0);
  ASSERT_TRUE(evicted.ok());
  ASSERT_EQ(*evicted, 1u);
  std::vector<core::TrajectoryId> durable_before = store.ListTrajectories();
  ASSERT_FALSE(durable_before.empty());

  // Reconnect: the fresh session must continue past the durable rows.
  for (size_t i = cut; i < s.size(); ++i) {
    ASSERT_TRUE(manager.Feed(0, s[i]).ok());
  }
  ASSERT_TRUE(manager.CloseAll().ok());

  // Every pre-eviction trajectory survived the reconnect untouched.
  std::vector<core::TrajectoryId> durable_after = store.ListTrajectories();
  for (core::TrajectoryId id : durable_before) {
    EXPECT_TRUE(std::find(durable_after.begin(), durable_after.end(), id) !=
                durable_after.end())
        << "reconnect overwrote trajectory " << id;
  }
  EXPECT_GT(durable_after.size(), durable_before.size());
  EXPECT_TRUE(store.ContentEquals(reference_store));
}

// The same regression across a checkpoint/restore boundary: the resume
// cursor a previous eviction left behind must survive the manager
// checkpoint, or a restored-then-reconnected object overwrites its own
// durable rows.
TEST_F(CheckpointFixture, EvictedObjectResumesAcrossCheckpointRestore) {
  std::vector<core::GpsPoint> s = PersonStream(0, 2);
  size_t cut = s.size() / 2;

  store::SemanticTrajectoryStore reference_store;
  {
    core::SemiTriPipeline pipeline(Model(), &reference_store);
    SessionManager manager(&pipeline);
    for (size_t i = 0; i < cut; ++i) ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    ASSERT_TRUE(manager.Close(0).ok());
    for (size_t i = cut; i < s.size(); ++i) {
      ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    }
    ASSERT_TRUE(manager.CloseAll().ok());
  }

  std::string ckpt =
      (fs::temp_directory_path() / "semitri_evict_restore_ckpt.bin").string();
  fs::remove(ckpt);
  store::SemanticTrajectoryStore store;
  {
    core::SemiTriPipeline pipeline(Model(), &store);
    SessionManager manager(&pipeline);
    for (size_t i = 0; i < cut; ++i) ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    auto evicted = manager.EvictIdle(0.0);
    ASSERT_TRUE(evicted.ok());
    ASSERT_EQ(*evicted, 1u);
    ASSERT_TRUE(manager.Checkpoint(ckpt).ok());
  }  // process "exits" with the object evicted
  {
    core::SemiTriPipeline pipeline(Model(), &store);
    SessionManager manager(&pipeline);
    ASSERT_TRUE(manager.Restore(ckpt).ok());
    EXPECT_EQ(manager.ActiveSessions(), 0u);
    for (size_t i = cut; i < s.size(); ++i) {
      ASSERT_TRUE(manager.Feed(0, s[i]).ok());
    }
    ASSERT_TRUE(manager.CloseAll().ok());
  }
  EXPECT_TRUE(store.ContentEquals(reference_store));
  fs::remove(ckpt);
}

}  // namespace
}  // namespace semitri::stream
