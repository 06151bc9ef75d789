// Integration tests for the end-to-end SeMiTri pipeline: all layers on
// simulated data, partial-source behaviour, store contents, latency
// accounting.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "datagen/world.h"

namespace semitri::core {
namespace {

class PipelineFixture : public ::testing::Test {
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
  std::unique_ptr<datagen::World> world_;
  std::unique_ptr<datagen::DatasetFactory> factory_;
};

TEST_F(PipelineFixture, FullPipelineProducesAllLayers) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(0);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(0, spec, 3);

  store::SemanticTrajectoryStore store;
  analytics::LatencyProfiler profiler;
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois,
                           PipelineConfig{}, &store, &profiler);
  auto results = pipeline.ProcessStream(0, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);  // daily trajectories

  size_t total_stops = 0;
  for (const PipelineResult& day : *results) {
    EXPECT_FALSE(day.episodes.empty());
    ASSERT_TRUE(day.region_layer.has_value());
    ASSERT_TRUE(day.line_layer.has_value());
    ASSERT_TRUE(day.point_layer.has_value());
    EXPECT_EQ(day.region_layer->episodes.size(), day.episodes.size());
    // Point layer has one episode per stop.
    EXPECT_EQ(day.point_layer->episodes.size(), day.NumStops());
    total_stops += day.NumStops();
  }
  EXPECT_GT(total_stops, 3u);

  // Store holds everything.
  EXPECT_EQ(store.num_trajectories(), 3u);
  EXPECT_GT(store.num_gps_records(), 0u);
  EXPECT_GT(store.num_semantic_episodes(), 0u);
  // All Fig. 17 stages recorded.
  EXPECT_EQ(profiler.Count(kStageComputeEpisode), 3u);
  EXPECT_EQ(profiler.Count(kStageStoreEpisode), 3u);
  EXPECT_EQ(profiler.Count(kStageMapMatch), 3u);
  EXPECT_EQ(profiler.Count(kStageLanduseJoin), 3u);
}

TEST_F(PipelineFixture, PartialSourcesSkipLayers) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(1);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(1, spec, 2);

  SemiTriPipeline regions_only(&world_->regions, nullptr, nullptr);
  auto results = regions_only.ProcessStream(1, track.points);
  ASSERT_TRUE(results.ok());
  for (const PipelineResult& day : *results) {
    EXPECT_TRUE(day.region_layer.has_value());
    EXPECT_FALSE(day.line_layer.has_value());
    EXPECT_FALSE(day.point_layer.has_value());
  }

  SemiTriPipeline roads_only(nullptr, &world_->roads, nullptr);
  auto road_results = roads_only.ProcessStream(1, track.points);
  ASSERT_TRUE(road_results.ok());
  for (const PipelineResult& day : *road_results) {
    EXPECT_FALSE(day.region_layer.has_value());
    EXPECT_TRUE(day.line_layer.has_value());
  }
}

TEST_F(PipelineFixture, PerPointRegionInterpretation) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(2);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(2, spec, 1);
  PipelineConfig config;
  config.region.granularity =
      region::RegionAnnotatorConfig::Granularity::kPerPoint;
  SemiTriPipeline pipeline(&world_->regions, nullptr, nullptr, config);
  auto results = pipeline.ProcessStream(2, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  const PipelineResult& day = results->front();
  ASSERT_TRUE(day.region_layer.has_value());
  // Per-point tuples compress versus raw records (the §5.2 storage-
  // compression claim; smartphone-rate data compresses less than the
  // paper's 1 Hz taxi feed but still substantially).
  EXPECT_LT(day.region_layer->episodes.size(), day.cleaned.size() / 3);
  EXPECT_GT(day.region_layer->episodes.size(), 0u);
}

TEST_F(PipelineFixture, AnnotateComputedMatchesFullRun) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(3);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(3, spec, 2);

  store::SemanticTrajectoryStore full_store;
  SemiTriPipeline full(&world_->regions, &world_->roads, &world_->pois,
                       PipelineConfig{}, &full_store);
  auto full_results = full.ProcessStream(3, track.points);
  ASSERT_TRUE(full_results.ok());
  ASSERT_FALSE(full_results->empty());

  // Re-annotating from the cached trajectory computation reproduces
  // every layer and every store row of the full run.
  store::SemanticTrajectoryStore computed_store;
  SemiTriPipeline from_computed(&world_->regions, &world_->roads,
                                &world_->pois, PipelineConfig{},
                                &computed_store);
  for (const PipelineResult& day : *full_results) {
    PipelineResult computed;
    computed.cleaned = day.cleaned;
    computed.episodes = day.episodes;
    auto annotated = from_computed.AnnotateComputed(std::move(computed));
    ASSERT_TRUE(annotated.ok());
    EXPECT_EQ(*annotated->region_layer, *day.region_layer);
    EXPECT_EQ(*annotated->line_layer, *day.line_layer);
    EXPECT_EQ(*annotated->point_layer, *day.point_layer);
  }
  EXPECT_TRUE(computed_store.ContentEquals(full_store));
}

TEST_F(PipelineFixture, StageGraphExecutionOrderMatchesLegacyPipeline) {
  store::SemanticTrajectoryStore store;
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois,
                           PipelineConfig{}, &store);
  EXPECT_EQ(pipeline.graph().ExecutionOrder(),
            (std::vector<std::string>{
                kStageComputeEpisode, kStageStoreEpisode, kStageLanduseJoin,
                kStageMapMatch, kStageStoreMatch, kStagePointAnnotation,
                kStageStoreInterpretation}));

  // Without sinks/sources only the registered stages appear.
  SemiTriPipeline regions_only(&world_->regions, nullptr, nullptr);
  EXPECT_EQ(regions_only.graph().ExecutionOrder(),
            (std::vector<std::string>{kStageComputeEpisode,
                                      kStageLanduseJoin}));
}

TEST_F(PipelineFixture, ReannotatePointLayerMatchesFullRun) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(3);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(3, spec, 2);
  analytics::LatencyProfiler profiler;
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois,
                           PipelineConfig{}, nullptr, &profiler);
  auto results = pipeline.ProcessStream(3, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const PipelineResult& day : *results) {
    ASSERT_TRUE(day.point_layer.has_value());
    auto redone = pipeline.ReannotateLayer(day, Layer::kPoint);
    ASSERT_TRUE(redone.ok());
    ASSERT_TRUE(redone->point_layer.has_value());
    // Bit-identical to the layer the full run produced...
    EXPECT_EQ(*redone->point_layer, *day.point_layer);
    // ...and the other layers ride along untouched.
    EXPECT_EQ(*redone->region_layer, *day.region_layer);
    EXPECT_EQ(*redone->line_layer, *day.line_layer);
  }
  // Reannotation is profiled under the same Fig. 17 stage name.
  EXPECT_EQ(profiler.Count(kStagePointAnnotation), 2 * results->size());
}

TEST_F(PipelineFixture, ReannotateAfterPoiSetSwapMatchesFreshRun) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(4);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(4, spec, 1);
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois);
  auto cached = pipeline.ProcessStream(4, track.points);
  ASSERT_TRUE(cached.ok());
  ASSERT_FALSE(cached->empty());

  // A POI repository refresh: same category space, but only every other
  // POI survives, so decoding changes.
  poi::PoiSet modified = poi::PoiSet::MilanCategories();
  const std::vector<poi::Poi>& original = world_->pois.pois();
  for (size_t i = 0; i < original.size(); i += 2) {
    modified.Add(original[i].position, original[i].category,
                 original[i].name);
  }
  store::SemanticTrajectoryStore store;
  SemiTriPipeline swapped(&world_->regions, &world_->roads, &modified,
                          PipelineConfig{}, &store);
  auto fresh = swapped.ProcessStream(4, track.points);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->size(), cached->size());

  for (size_t i = 0; i < cached->size(); ++i) {
    auto redone = swapped.ReannotateLayer((*cached)[i], Layer::kPoint);
    ASSERT_TRUE(redone.ok());
    ASSERT_TRUE(redone->point_layer.has_value());
    // Recomputing just the point layer from cached episodes matches a
    // fresh end-to-end run against the new repository...
    EXPECT_EQ(*redone->point_layer, *(*fresh)[i].point_layer);
    // ...leaves the cached region/line layers alone...
    EXPECT_EQ(*redone->region_layer, *(*cached)[i].region_layer);
    EXPECT_EQ(*redone->line_layer, *(*cached)[i].line_layer);
    // ...and writes the refreshed interpretation through to the store.
    auto stored = store.GetInterpretation(redone->cleaned.id, "point");
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, *redone->point_layer);
  }
}

TEST_F(PipelineFixture, ReannotateLayerWithoutSourceFails) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(0);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(0, spec, 1);
  SemiTriPipeline regions_only(&world_->regions, nullptr, nullptr);
  auto results = regions_only.ProcessStream(0, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  auto redone = regions_only.ReannotateLayer(results->front(), Layer::kPoint);
  EXPECT_FALSE(redone.ok());
  EXPECT_EQ(redone.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, StopsAnnotatedWithPlausibleCategories) {
  // Milan-style car data: true stop categories are known; the point
  // layer should recover a majority of them.
  datagen::Dataset cars = factory_->MilanPrivateCars(/*num_cars=*/8,
                                                     /*num_days=*/3);
  PipelineConfig config;
  // Errand stops are near-independent; a weakly sticky transition
  // matrix fits this workload better than the Fig. 6 default.
  config.point.default_self_transition = 0.25;
  SemiTriPipeline pipeline(&world_->regions, nullptr, &world_->pois, config);

  size_t correct = 0, evaluated = 0;
  for (const auto& track : cars.tracks) {
    auto results = pipeline.ProcessStream(track.object_id, track.points);
    ASSERT_TRUE(results.ok());
    for (const PipelineResult& day : *results) {
      if (!day.point_layer.has_value()) continue;
      for (const SemanticEpisode& ep : day.point_layer->episodes) {
        // Find the overlapping true stop.
        for (const auto& true_stop : track.stops) {
          if (true_stop.poi_category < 0) continue;
          double overlap =
              std::min(ep.time_out, true_stop.time_out) -
              std::max(ep.time_in, true_stop.time_in);
          if (overlap < 0.5 * (true_stop.time_out - true_stop.time_in)) {
            continue;
          }
          ++evaluated;
          if (ep.FindAnnotation("poi_category_id") ==
              std::to_string(true_stop.poi_category)) {
            ++correct;
          }
          break;
        }
      }
    }
  }
  ASSERT_GT(evaluated, 20u);
  // Must clearly beat the best-prior baseline (item sale ≈ 31 % of the
  // repository; errand truth is drawn with item sale at 55 %, so
  // always-guess-item-sale sits near 0.55 only on the *activity* mix —
  // against the decoded mix the informative bar is ~0.45).
  EXPECT_GT(static_cast<double>(correct) / evaluated, 0.45)
      << correct << "/" << evaluated;
}

TEST_F(PipelineFixture, EmptyStream) {
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois);
  auto results = pipeline.ProcessStream(0, {});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST_F(PipelineFixture, ResultRoundTripsThroughStore) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(0);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(0, spec, 1);
  store::SemanticTrajectoryStore store;
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois,
                           PipelineConfig{}, &store);
  auto results = pipeline.ProcessStream(0, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  TrajectoryId id = results->front().cleaned.id;
  auto region = store.GetInterpretation(id, "region");
  auto line = store.GetInterpretation(id, "line");
  auto point = store.GetInterpretation(id, "point");
  EXPECT_TRUE(region.ok());
  EXPECT_TRUE(line.ok());
  EXPECT_TRUE(point.ok());
  EXPECT_EQ(region->episodes.size(),
            results->front().region_layer->episodes.size());
}


TEST_F(PipelineFixture, StoreWriteFailureSurfaces) {
  // A durable store in an unwritable location must surface an IoError
  // from ProcessStream rather than being swallowed.
  datagen::PersonSpec spec = factory_->MakePersonSpec(0);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(5, spec, 1);
  store::StoreConfig bad;
  bad.durable_dir = "/proc/semitri_definitely_unwritable";
  store::SemanticTrajectoryStore store(bad);
  SemiTriPipeline pipeline(&world_->regions, nullptr, nullptr,
                           PipelineConfig{}, &store);
  auto results = pipeline.ProcessStream(5, track.points);
  EXPECT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), common::StatusCode::kIoError);
}

TEST_F(PipelineFixture, PointLayerFailureFollowsAnnotationFailurePolicy) {
  // A 1x1 transition matrix does not fit the POI category space, so
  // Viterbi's model check fails on every trajectory with a stop.
  datagen::PersonSpec spec = factory_->MakePersonSpec(2);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(2, spec, 2);
  PipelineConfig config;
  config.point.transition = {{1.0}};

  // Skip-and-record: the run completes, each trajectory with a stop
  // keeps its region and line layers, and the store gets no point rows.
  config.annotation_failure = FailurePolicy::SkipAndRecord();
  store::SemanticTrajectoryStore store;
  SemiTriPipeline degrading(&world_->regions, &world_->roads, &world_->pois,
                            config, &store);
  auto results = degrading.ProcessStream(2, track.points);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  size_t with_stops = 0;
  for (const PipelineResult& r : *results) {
    if (r.NumStops() == 0) continue;
    ++with_stops;
    EXPECT_TRUE(r.region_layer.has_value());
    EXPECT_TRUE(r.line_layer.has_value());
    EXPECT_FALSE(r.point_layer.has_value());
    EXPECT_TRUE(r.degraded());
    auto report = r.stage_reports.find(kStagePointAnnotation);
    ASSERT_TRUE(report != r.stage_reports.end());
    EXPECT_TRUE(report->second.skipped);
    EXPECT_EQ(report->second.status.code(),
              common::StatusCode::kInvalidArgument);
    std::vector<std::string> stored = store.ListInterpretations(r.cleaned.id);
    auto has = [&](const char* name) {
      return std::find(stored.begin(), stored.end(), name) != stored.end();
    };
    EXPECT_TRUE(has("region"));
    EXPECT_TRUE(has("line"));
    EXPECT_FALSE(has("point"));
  }
  EXPECT_GT(with_stops, 0u);

  // Fail-fast (the default): the same error aborts the stream.
  config.annotation_failure = FailurePolicy::FailFast();
  SemiTriPipeline strict(&world_->regions, &world_->roads, &world_->pois,
                         config);
  auto failed = strict.ProcessStream(2, track.points);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace semitri::core
