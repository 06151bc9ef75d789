// Parameterized property sweeps across the data-quality axes the paper
// emphasizes (§1.2: "sampling rates and GPS signal availability
// influence the quality of raw trajectory data"): the pipeline's
// invariants must hold for every sampling rate, noise level, and seed.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "road/map_matcher.h"
#include "traj/point_batch.h"
#include "traj/segmentation.h"

namespace semitri {
namespace {

// ---------------------------------------------------------------------
// Segmentation must find the move-stop-move structure at any sampling
// rate from 1 s (vehicles) to 40 s (Milan cars).

class SamplingRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(SamplingRateSweep, SegmentationStructureStable) {
  const double interval = GetParam();
  common::Rng rng(41);
  core::RawTrajectory t;
  double time = 0.0;
  double x = 0.0;
  // 10 minutes moving at 8 m/s, 10 minutes dwell, 10 minutes moving.
  auto emit = [&](double speed, double duration) {
    for (double end = time + duration; time < end; time += interval) {
      x += speed * interval;
      t.points.push_back({{x + rng.Gaussian(0, 4.0), rng.Gaussian(0, 4.0)},
                          time});
    }
  };
  emit(8.0, 600.0);
  emit(0.0, 600.0);
  emit(8.0, 600.0);

  traj::StopMoveSegmenter segmenter;
  auto episodes = segmenter.Segment(t);
  size_t stops = 0, moves = 0;
  for (const auto& ep : episodes) {
    if (ep.kind == core::EpisodeKind::kStop) ++stops;
    if (ep.kind == core::EpisodeKind::kMove) ++moves;
  }
  EXPECT_EQ(stops, 1u) << "interval " << interval;
  EXPECT_EQ(moves, 2u) << "interval " << interval;
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingRateSweep,
                         ::testing::Values(1.0, 5.0, 10.0, 20.0, 40.0));

// ---------------------------------------------------------------------
// Global map matching must beat or equal the geometric baseline for
// every seed at phone-grade noise.

class MatcherSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherSeedSweep, GlobalNeverWorseThanBaseline) {
  datagen::WorldConfig wc;
  wc.seed = GetParam();
  wc.extent_meters = 3000.0;
  wc.num_pois = 100;
  datagen::World world = datagen::WorldGenerator(wc).Generate();
  datagen::DatasetFactory factory(&world, GetParam() + 1);
  datagen::Dataset drive =
      factory.SeattleDrive(/*hours=*/0.4, /*gps_sigma_meters=*/10.0);
  const auto& track = drive.tracks[0];
  ASSERT_GT(track.points.size(), 100u);
  std::vector<core::PlaceId> truth;
  for (const auto& s : track.truth) truth.push_back(s.segment);

  road::GlobalMapMatcher global(&world.roads);
  road::GeometricMapMatcher baseline(&world.roads);
  traj::PointBatch batch;
  batch.BuildFrom(track.points);
  double acc_global =
      road::MatchingAccuracy(global.MatchPoints(batch.View()), truth);
  double acc_baseline =
      road::MatchingAccuracy(baseline.MatchPoints(batch.View()), truth);
  EXPECT_GE(acc_global, acc_baseline - 0.01) << "seed " << GetParam();
  EXPECT_GT(acc_global, 0.6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherSeedSweep,
                         ::testing::Values(201, 202, 203, 204, 205));

// ---------------------------------------------------------------------
// Pipeline invariants across dataset presets.

struct PresetCase {
  const char* name;
  int preset;  // 0 = taxi, 1 = cars, 2 = people
};

// Print the preset by name. gtest's default dumps the struct's raw bytes
// (a pointer plus padding), so the discovered test names would change on
// every run.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class PresetSweep : public ::testing::TestWithParam<PresetCase> {};

TEST_P(PresetSweep, PipelineInvariantsHold) {
  datagen::WorldConfig wc;
  wc.seed = 71;
  wc.extent_meters = 3500.0;
  wc.num_pois = 400;
  datagen::World world = datagen::WorldGenerator(wc).Generate();
  datagen::DatasetFactory factory(&world, 72);
  datagen::Dataset dataset;
  switch (GetParam().preset) {
    case 0: dataset = factory.LausanneTaxis(1, 2, 2.0); break;
    case 1: dataset = factory.MilanPrivateCars(3, 2); break;
    default: dataset = factory.NokiaPeople(2, 3); break;
  }
  core::SemiTriPipeline pipeline(&world.regions, &world.roads,
                                 &world.pois);
  for (const auto& track : dataset.tracks) {
    auto results = pipeline.ProcessStream(track.object_id, track.points);
    ASSERT_TRUE(results.ok());
    for (const core::PipelineResult& day : *results) {
      // Episodes partition the cleaned points and are time-ordered.
      size_t covered = 0;
      double last_out = -1e18;
      for (const core::Episode& ep : day.episodes) {
        covered += ep.num_points();
        EXPECT_GE(ep.time_in, last_out - 1e-6);
        EXPECT_LE(ep.time_in, ep.time_out);
        last_out = ep.time_out;
      }
      EXPECT_EQ(covered, day.cleaned.size());
      // Region layer: one episode per stop/move episode.
      ASSERT_TRUE(day.region_layer.has_value());
      EXPECT_EQ(day.region_layer->episodes.size(), day.episodes.size());
      // Point layer: one per stop, each with category + confidence in
      // (0, 1].
      ASSERT_TRUE(day.point_layer.has_value());
      EXPECT_EQ(day.point_layer->episodes.size(), day.NumStops());
      for (const core::SemanticEpisode& ep : day.point_layer->episodes) {
        EXPECT_FALSE(ep.FindAnnotation("poi_category").empty());
        const std::string& conf =
            ep.FindAnnotation("poi_category_confidence");
        ASSERT_FALSE(conf.empty());
        double c = std::stod(conf);
        EXPECT_GT(c, 0.0);
        EXPECT_LE(c, 1.0 + 1e-9);
      }
      // Line layer: every matched episode has a mode annotation.
      ASSERT_TRUE(day.line_layer.has_value());
      for (const core::SemanticEpisode& ep : day.line_layer->episodes) {
        if (ep.place.valid()) {
          EXPECT_FALSE(ep.FindAnnotation("transport_mode").empty());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetSweep,
    ::testing::Values(PresetCase{"taxi", 0}, PresetCase{"cars", 1},
                      PresetCase{"people", 2}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace semitri
