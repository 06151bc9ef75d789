// Streaming annotation subsystem tests: the headline contract is that
// feeding a stream fix by fix and closing reproduces the offline
// Trajectory Computation Layer bit for bit — same splits, same cleaned
// traces, same episode tables — and that live sessions leave the
// semantic trajectory store in exactly the offline end state.

#include "stream/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/ingest.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "stream/annotation_session.h"
#include "stream/episode_detector.h"
#include "traj/identification.h"
#include "traj/preprocess.h"
#include "traj/segmentation.h"

namespace semitri::stream {
namespace {

// The offline Trajectory Computation Layer, verbatim: identify ->
// clean -> segment. This is the reference the detector must reproduce.
struct OfflineReference {
  std::vector<core::RawTrajectory> cleaned;
  std::vector<std::vector<core::Episode>> episodes;
};

OfflineReference OfflineCompute(core::ObjectId object_id,
                                const std::vector<core::GpsPoint>& stream,
                                const EpisodeDetectorConfig& config,
                                core::TrajectoryId first_id = 0) {
  traj::TrajectoryIdentifier identifier(config.identification);
  traj::Preprocessor preprocessor(config.preprocess);
  traj::StopMoveSegmenter segmenter(config.segmentation);
  OfflineReference ref;
  for (const core::RawTrajectory& raw :
       identifier.Identify(object_id, stream, first_id)) {
    core::RawTrajectory cleaned = preprocessor.Clean(raw);
    ref.episodes.push_back(segmenter.Segment(cleaned));
    ref.cleaned.push_back(std::move(cleaned));
  }
  return ref;
}

struct DrainResult {
  std::vector<ClosedTrajectory> closed;
  // Per closed trajectory: episodes delivered incrementally (via
  // closed_episodes events) before the trajectory itself closed.
  std::vector<size_t> early_episodes;
};

DrainResult Drain(EpisodeDetector* detector,
                  const std::vector<core::GpsPoint>& stream) {
  DrainResult out;
  size_t early = 0;
  DetectorEvents events;
  auto collect = [&](const DetectorEvents& ev) {
    if (ev.closed_trajectory.has_value()) {
      out.closed.push_back(*ev.closed_trajectory);
      out.early_episodes.push_back(early);
      early = 0;
    }
    early += ev.closed_episodes.size();
  };
  for (const core::GpsPoint& fix : stream) {
    detector->Feed(fix, &events);
    collect(events);
  }
  detector->Close(&events);
  collect(events);
  return out;
}

// Full bit-for-bit equivalence of a drained stream vs. the offline
// pipeline, for one detector configuration.
void ExpectDetectorMatchesOffline(core::ObjectId object_id,
                                  const std::vector<core::GpsPoint>& stream,
                                  const EpisodeDetectorConfig& config) {
  OfflineReference ref = OfflineCompute(object_id, stream, config);
  EpisodeDetector detector(object_id, config);
  DrainResult drained = Drain(&detector, stream);
  ASSERT_EQ(drained.closed.size(), ref.cleaned.size());
  for (size_t t = 0; t < ref.cleaned.size(); ++t) {
    EXPECT_EQ(drained.closed[t].cleaned, ref.cleaned[t])
        << "cleaned trace mismatch, trajectory " << t;
    EXPECT_EQ(drained.closed[t].episodes, ref.episodes[t])
        << "episode table mismatch, trajectory " << t;
  }
  EXPECT_EQ(detector.stats().trajectories_closed, ref.cleaned.size());
}

class StreamFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::WorldConfig wc;
    wc.seed = 33;
    wc.extent_meters = 4000.0;
    wc.num_pois = 800;
    world_ = std::make_unique<datagen::World>(
        datagen::WorldGenerator(wc).Generate());
    factory_ = std::make_unique<datagen::DatasetFactory>(world_.get(), 35);
  }

  std::vector<core::GpsPoint> PersonStream(int index, int days) {
    datagen::PersonSpec spec = factory_->MakePersonSpec(index);
    return factory_->SimulatePersonDays(index, spec, days).points;
  }

  std::unique_ptr<datagen::World> world_;
  std::unique_ptr<datagen::DatasetFactory> factory_;
};

TEST_F(StreamFixture, DetectorMatchesOfflineVelocityPolicy) {
  EpisodeDetectorConfig config;
  ExpectDetectorMatchesOffline(0, PersonStream(0, 3), config);
}

TEST_F(StreamFixture, DetectorMatchesOfflineWithBeginEndMarkers) {
  EpisodeDetectorConfig config;
  config.segmentation.emit_begin_end = true;
  ExpectDetectorMatchesOffline(0, PersonStream(0, 2), config);
}

TEST_F(StreamFixture, DetectorMatchesOfflineDensityPolicy) {
  EpisodeDetectorConfig config;
  config.segmentation.policy = traj::StopPolicy::kDensity;
  ExpectDetectorMatchesOffline(1, PersonStream(1, 3), config);
}

TEST_F(StreamFixture, DetectorMatchesOfflineWithoutSmoothing) {
  EpisodeDetectorConfig config;
  config.preprocess.smoothing_bandwidth_seconds = 0.0;
  config.segmentation.speed_smoothing_half_window = 0;
  ExpectDetectorMatchesOffline(2, PersonStream(2, 2), config);
}

TEST_F(StreamFixture, DetectorMatchesOfflineOnEveryPreset) {
  struct Case {
    std::string name;
    datagen::Dataset dataset;
  };
  std::vector<Case> cases;
  cases.push_back({"taxis", factory_->LausanneTaxis(1, 2)});
  cases.push_back({"cars", factory_->MilanPrivateCars(3, 2)});
  cases.push_back({"drive", factory_->SeattleDrive(0.5)});
  cases.push_back({"people", factory_->NokiaPeople(2, 3)});
  for (const Case& c : cases) {
    for (const datagen::SimulatedTrack& track : c.dataset.tracks) {
      SCOPED_TRACE(c.name + " object " + std::to_string(track.object_id));
      EpisodeDetectorConfig config;
      ExpectDetectorMatchesOffline(track.object_id, track.points, config);
    }
  }
}

TEST_F(StreamFixture, DetectorClosesEpisodesBeforeTrajectoryEnd) {
  std::vector<core::GpsPoint> stream = PersonStream(0, 3);
  EpisodeDetector detector(0, EpisodeDetectorConfig{});
  DrainResult drained = Drain(&detector, stream);
  ASSERT_FALSE(drained.closed.empty());
  // A multi-stop day must close episodes incrementally — well before
  // the trajectory's own close — and everything delivered early must be
  // an exact prefix of the final episode table.
  size_t total_early = 0;
  for (size_t t = 0; t < drained.closed.size(); ++t) {
    size_t early = drained.early_episodes[t];
    total_early += early;
    ASSERT_LE(early, drained.closed[t].episodes.size());
  }
  EXPECT_GT(total_early, 0u);
}

TEST_F(StreamFixture, IncrementalEpisodesArePrefixOfFinalTable) {
  std::vector<core::GpsPoint> stream = PersonStream(1, 2);
  EpisodeDetector detector(1, EpisodeDetectorConfig{});
  DetectorEvents events;
  std::vector<core::Episode> early;
  auto check = [&](const DetectorEvents& ev) {
    if (ev.closed_trajectory.has_value()) {
      const std::vector<core::Episode>& final_table =
          ev.closed_trajectory->episodes;
      ASSERT_LE(early.size(), final_table.size());
      for (size_t i = 0; i < early.size(); ++i) {
        EXPECT_EQ(early[i], final_table[i]) << "early episode " << i;
      }
      early.clear();
    }
    early.insert(early.end(), ev.closed_episodes.begin(),
                 ev.closed_episodes.end());
  };
  for (const core::GpsPoint& fix : stream) {
    detector.Feed(fix, &events);
    check(events);
  }
  detector.Close(&events);
  check(events);
}

TEST(EpisodeDetectorTest, RejectsOutOfOrderAndNonFiniteFixes) {
  EpisodeDetector detector(7, EpisodeDetectorConfig{});
  DetectorEvents events;
  detector.Feed({{0.0, 0.0}, 100.0}, &events);
  EXPECT_TRUE(events.accepted);
  detector.Feed({{1.0, 0.0}, 50.0}, &events);  // time went backwards
  EXPECT_FALSE(events.accepted);
  double nan = std::nan("");
  detector.Feed({{nan, 0.0}, 200.0}, &events);
  EXPECT_FALSE(events.accepted);
  detector.Feed({{2.0, 0.0}, 200.0}, &events);
  EXPECT_TRUE(events.accepted);
  EXPECT_EQ(detector.stats().points_fed, 4u);
  EXPECT_EQ(detector.stats().points_rejected, 2u);
}

TEST(EpisodeDetectorTest, DiscardsNoiseTrajectoriesWithoutConsumingIds) {
  EpisodeDetectorConfig config;
  DetectorEvents events;
  EpisodeDetector detector(7, config, /*first_id=*/42);
  // 3 points then a gap: below min_points, so discarded as noise.
  for (int i = 0; i < 3; ++i) {
    detector.Feed({{static_cast<double>(i), 0.0}, 10.0 * i}, &events);
  }
  detector.Feed({{0.0, 0.0}, 10000.0}, &events);
  EXPECT_TRUE(events.discarded_trajectory);
  EXPECT_FALSE(events.closed_trajectory.has_value());
  EXPECT_EQ(detector.stats().trajectories_discarded, 1u);
  EXPECT_EQ(detector.next_trajectory_id(), 42);
}

TEST(EpisodeDetectorTest, ForcedSplitBoundsBufferedPoints) {
  EpisodeDetectorConfig config;
  config.max_buffered_points = 50;
  config.identification.min_points = 10;
  config.identification.min_duration_seconds = 10.0;
  EpisodeDetector detector(3, config);
  DetectorEvents events;
  size_t closed = 0;
  for (int i = 0; i < 200; ++i) {
    detector.Feed({{i * 5.0, 0.0}, i * 10.0}, &events);
    if (events.closed_trajectory.has_value()) {
      ++closed;
      EXPECT_LE(events.closed_trajectory->cleaned.size(), 50u);
    }
  }
  EXPECT_GE(detector.stats().forced_splits, 3u);
  EXPECT_EQ(closed, detector.stats().trajectories_closed);
  EXPECT_GE(closed, 3u);
}

void ExpectResultsEqual(const core::PipelineResult& streaming,
                        const core::PipelineResult& offline) {
  EXPECT_EQ(streaming.cleaned, offline.cleaned);
  EXPECT_EQ(streaming.episodes, offline.episodes);
  EXPECT_EQ(streaming.region_layer, offline.region_layer);
  EXPECT_EQ(streaming.line_layer, offline.line_layer);
  EXPECT_EQ(streaming.point_layer, offline.point_layer);
}

TEST_F(StreamFixture, AnnotationSessionMatchesOfflinePipeline) {
  std::vector<core::GpsPoint> stream = PersonStream(0, 3);

  store::SemanticTrajectoryStore offline_store;
  core::SemiTriPipeline offline(&world_->regions, &world_->roads,
                                &world_->pois, core::PipelineConfig{},
                                &offline_store);
  auto offline_results = offline.ProcessStream(0, stream);
  ASSERT_TRUE(offline_results.ok());
  ASSERT_FALSE(offline_results->empty());

  store::SemanticTrajectoryStore live_store;
  core::SemiTriPipeline live(&world_->regions, &world_->roads, &world_->pois,
                             core::PipelineConfig{}, &live_store);
  SessionConfig sc;
  sc.keep_results = true;
  AnnotationSession session(&live, 0, sc);
  for (const core::GpsPoint& fix : stream) {
    auto fed = session.Feed(fix);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  }
  ASSERT_TRUE(session.Flush().ok());

  ASSERT_EQ(session.results().size(), offline_results->size());
  for (size_t t = 0; t < offline_results->size(); ++t) {
    SCOPED_TRACE("trajectory " + std::to_string(t));
    ExpectResultsEqual(session.results()[t], (*offline_results)[t]);
  }
  // Provisional mid-stream writes are all keyed overwrites, so the
  // final store states are identical.
  EXPECT_TRUE(live_store.ContentEquals(offline_store));
  EXPECT_GT(session.stats().annotation_passes, 0u);
}

TEST_F(StreamFixture, SessionWithoutPerEpisodeAnnotationSameEndState) {
  std::vector<core::GpsPoint> stream = PersonStream(1, 2);

  store::SemanticTrajectoryStore eager_store;
  core::SemiTriPipeline eager(&world_->regions, &world_->roads,
                              &world_->pois, core::PipelineConfig{},
                              &eager_store);
  AnnotationSession eager_session(&eager, 1, SessionConfig{});
  for (const core::GpsPoint& fix : stream) {
    ASSERT_TRUE(eager_session.Feed(fix).ok());
  }
  ASSERT_TRUE(eager_session.Flush().ok());

  store::SemanticTrajectoryStore lazy_store;
  core::SemiTriPipeline lazy(&world_->regions, &world_->roads, &world_->pois,
                             core::PipelineConfig{}, &lazy_store);
  SessionConfig lazy_config;
  lazy_config.annotate_on_episode = false;
  AnnotationSession lazy_session(&lazy, 1, lazy_config);
  for (const core::GpsPoint& fix : stream) {
    ASSERT_TRUE(lazy_session.Feed(fix).ok());
  }
  ASSERT_TRUE(lazy_session.Flush().ok());

  EXPECT_TRUE(lazy_store.ContentEquals(eager_store));
  EXPECT_EQ(lazy_session.stats().annotation_passes, 0u);
}

TEST_F(StreamFixture, SessionManagerMatchesOfflinePerObjectRuns) {
  constexpr int kObjects = 3;
  std::vector<std::vector<core::GpsPoint>> streams;
  for (int i = 0; i < kObjects; ++i) streams.push_back(PersonStream(i, 2));

  // Offline reference: one ProcessStream per object with the offline
  // id-block convention.
  store::SemanticTrajectoryStore offline_store;
  core::SemiTriPipeline offline(&world_->regions, &world_->roads,
                                &world_->pois, core::PipelineConfig{},
                                &offline_store);
  for (int i = 0; i < kObjects; ++i) {
    auto results = offline.ProcessStream(i, streams[i], i * 1000);
    ASSERT_TRUE(results.ok());
  }

  // Streaming: interleave the objects' fixes round-robin through one
  // manager.
  store::SemanticTrajectoryStore live_store;
  core::SemiTriPipeline live(&world_->regions, &world_->roads, &world_->pois,
                             core::PipelineConfig{}, &live_store);
  SessionManager manager(&live, SessionManagerConfig{});
  size_t longest = 0;
  for (const auto& s : streams) longest = std::max(longest, s.size());
  for (size_t k = 0; k < longest; ++k) {
    for (int i = 0; i < kObjects; ++i) {
      if (k >= streams[i].size()) continue;
      auto fed = manager.Feed(i, streams[i][k]);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    }
  }
  EXPECT_EQ(manager.ActiveSessions(), static_cast<size_t>(kObjects));
  ASSERT_TRUE(manager.CloseAll().ok());
  EXPECT_EQ(manager.ActiveSessions(), 0u);

  EXPECT_TRUE(live_store.ContentEquals(offline_store));

  SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.sessions_opened, static_cast<size_t>(kObjects));
  EXPECT_EQ(stats.sessions_evicted, static_cast<size_t>(kObjects));
  size_t total_points = 0;
  for (const auto& s : streams) total_points += s.size();
  EXPECT_EQ(stats.points_fed, total_points);
  EXPECT_EQ(stats.trajectories_closed, offline_store.num_trajectories());
}

TEST_F(StreamFixture, SessionManagerFlushEvictAndNotFound) {
  core::SemiTriPipeline pipeline(&world_->regions, nullptr, nullptr);
  SessionManager manager(&pipeline, SessionManagerConfig{});

  EXPECT_EQ(manager.Flush(9).code(), common::StatusCode::kNotFound);
  EXPECT_EQ(manager.Close(9).code(), common::StatusCode::kNotFound);

  std::vector<core::GpsPoint> stream = PersonStream(0, 1);
  for (size_t k = 0; k < stream.size() / 2; ++k) {
    ASSERT_TRUE(manager.Feed(4, stream[k]).ok());
    ASSERT_TRUE(manager.Feed(5, stream[k]).ok());
  }
  EXPECT_EQ(manager.ActiveSessions(), 2u);
  // Flush finalizes the open trajectory but keeps the session live.
  ASSERT_TRUE(manager.Flush(4).ok());
  EXPECT_EQ(manager.ActiveSessions(), 2u);

  // Everything has been idle for >= 0 s, so a zero threshold evicts all.
  auto evicted = manager.EvictIdle(0.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_EQ(manager.ActiveSessions(), 0u);
  // Counters survive eviction.
  EXPECT_EQ(manager.stats().points_fed, 2 * (stream.size() / 2));
  EXPECT_EQ(manager.stats().sessions_evicted, 2u);
}

TEST(GpsIngestorTest, IncrementalProjectionMatchesBatch) {
  std::vector<core::LatLonFix> fixes;
  for (int i = 0; i < 20; ++i) {
    fixes.push_back({{46.52 + i * 1e-4, 6.63 + i * 1e-4}, 10.0 * i});
  }
  fixes.push_back({{91.0, 0.0}, 210.0});                // out of range
  fixes.push_back({{std::nan(""), 6.63}, 220.0});       // non-finite
  fixes.push_back({{46.53, 6.64}, 230.0});

  auto ingestor = core::GpsIngestor::AroundCentroid(fixes);
  ASSERT_TRUE(ingestor.ok());
  std::vector<core::GpsPoint> batch = ingestor->ToLocal(fixes);
  std::vector<core::GpsPoint> incremental;
  for (const core::LatLonFix& fix : fixes) {
    if (auto p = ingestor->ToLocalFix(fix)) incremental.push_back(*p);
  }
  EXPECT_EQ(incremental, batch);
  ASSERT_EQ(batch.size(), fixes.size() - 2);  // the two invalid fixes drop
}

TEST(GpsIngestorTest, AroundFixAnchorsSessionAtFirstFix) {
  core::LatLonFix first{{46.52, 6.63}, 0.0};
  auto ingestor = core::GpsIngestor::AroundFix(first);
  ASSERT_TRUE(ingestor.ok());
  auto p = ingestor->ToLocalFix(first);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->position.x, 0.0, 1e-6);
  EXPECT_NEAR(p->position.y, 0.0, 1e-6);

  core::LatLonFix bad{{200.0, 0.0}, 0.0};
  EXPECT_FALSE(core::GpsIngestor::AroundFix(bad).ok());
  EXPECT_FALSE(ingestor->ToLocalFix(bad).has_value());
}

}  // namespace
}  // namespace semitri::stream
