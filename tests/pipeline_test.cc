// Integration tests for the end-to-end SeMiTri pipeline: all layers on
// simulated data, partial-source behaviour, store contents, latency
// accounting.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "core/state_serialization.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "store/wal.h"

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
    // A clean run leaves no stage report.
    EXPECT_TRUE(day.stage_reports.empty());
  }
  EXPECT_GT(total_stops, 3u);

  // Store holds everything.
  EXPECT_EQ(store.num_trajectories(), 3u);
  EXPECT_GT(store.num_gps_records(), 0u);
  EXPECT_GT(store.num_semantic_episodes(), 0u);
  // One sample per trajectory for each Fig. 17 stage...
  for (const char* stage :
       {kStageComputeEpisode, kStageStoreEpisode, kStageLanduseJoin,
        kStageMapMatch, kStageStoreMatch, kStagePointAnnotation}) {
    EXPECT_EQ(profiler.Count(stage), 3u) << stage;
  }
  // ...and none for the unprofiled write-back tail.
  EXPECT_EQ(profiler.Count(kStageStoreInterpretation), 0u);
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
  SemiTriPipeline pipeline(&world_->regions, nullptr, nullptr);
  auto results = pipeline.ProcessStream(2, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  const RawTrajectory& day = results->front().cleaned;
  // Algorithm 1 as printed, over the pipeline's cleaned day: per-point
  // tuples compress versus raw records (the §5.2 storage-compression
  // claim; smartphone-rate data compresses less than the paper's 1 Hz
  // taxi feed but still substantially).
  region::RegionAnnotator annotator(&world_->regions);
  StructuredSemanticTrajectory per_point = annotator.AnnotateTrajectory(day);
  EXPECT_LT(per_point.episodes.size(), day.size() / 3);
  EXPECT_GT(per_point.episodes.size(), 0u);
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

TEST_F(PipelineFixture, HealthListsStagesInRunOrder) {
  auto stage_names = [](const SemiTriPipeline& pipeline) {
    std::vector<std::string> names;
    for (const StageHealth& stage : pipeline.Health().stages) {
      names.push_back(stage.stage);
    }
    return names;
  };
  store::SemanticTrajectoryStore store;
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois,
                           PipelineConfig{}, &store);
  EXPECT_EQ(stage_names(pipeline),
            (std::vector<std::string>{
                kStageComputeEpisode, kStageStoreEpisode, kStageLanduseJoin,
                kStageMapMatch, kStageStoreMatch, kStagePointAnnotation,
                kStageStoreInterpretation}));

  // Without sinks/sources only the stages that run appear.
  SemiTriPipeline regions_only(&world_->regions, nullptr, nullptr);
  EXPECT_EQ(stage_names(regions_only),
            (std::vector<std::string>{kStageComputeEpisode,
                                      kStageLanduseJoin}));
}

TEST_F(PipelineFixture, OfflineStoreWritesFollowStageOrder) {
  datagen::PersonSpec spec = factory_->MakePersonSpec(0);
  datagen::SimulatedTrack track = factory_->SimulatePersonDays(0, spec, 2);
  std::string dir = (std::filesystem::temp_directory_path() /
                     "semitri_pipeline_write_order")
                        .string();
  std::filesystem::remove_all(dir);
  store::StoreConfig durable;
  durable.durable_dir = dir;
  store::SemanticTrajectoryStore store(durable);
  SemiTriPipeline pipeline(&world_->regions, &world_->roads, &world_->pois,
                           PipelineConfig{}, &store);
  auto results = pipeline.ProcessStream(0, track.points);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);

  // The log, decoded as (trajectory, table) per record.
  std::vector<std::pair<TrajectoryId, std::string>> writes;
  auto replayed = store::ReplayWal(
      dir + "/wal.log",
      [&](store::WalRecordType type, std::string_view payload) {
        common::StateReader reader(payload);
        switch (type) {
          case store::WalRecordType::kPutRawTrajectory: {
            RawTrajectory raw;
            SEMITRI_RETURN_IF_ERROR(RestoreState(&reader, &raw));
            writes.emplace_back(raw.id, "raw");
            break;
          }
          case store::WalRecordType::kPutEpisodes: {
            int64_t id = 0;
            SEMITRI_RETURN_IF_ERROR(reader.GetI64(&id));
            writes.emplace_back(id, "episodes");
            break;
          }
          case store::WalRecordType::kPutInterpretation: {
            StructuredSemanticTrajectory layer;
            SEMITRI_RETURN_IF_ERROR(RestoreState(&reader, &layer));
            writes.emplace_back(layer.trajectory_id, layer.interpretation);
            break;
          }
          default:
            return common::Status::Corruption(
                "an offline run logs full puts only");
        }
        return common::Status::OK();
      },
      /*truncate_torn_tail=*/false);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

  // Each trajectory logs its full puts in stage order — the order
  // Recover() replays them in.
  std::vector<std::pair<TrajectoryId, std::string>> expected;
  for (const PipelineResult& day : *results) {
    for (const char* table : {"raw", "episodes", "line", "region", "point"}) {
      expected.emplace_back(day.cleaned.id, table);
    }
  }
  EXPECT_EQ(writes, expected);
  std::filesystem::remove_all(dir);
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

  // Fail-fast (the default): the same error aborts the stream at the
  // first trajectory with a stop.
  config.annotation_failure = FailurePolicy::FailFast();
  store::SemanticTrajectoryStore strict_store;
  SemiTriPipeline strict(&world_->regions, &world_->roads, &world_->pois,
                         config, &strict_store);
  auto failed = strict.ProcessStream(2, track.points);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), common::StatusCode::kInvalidArgument);
  // That trajectory's raw trace, episodes and line layer were stored
  // before point_annotation failed; store_interpretation, which writes
  // the region and point layers, never ran.
  auto first_with_stops =
      std::find_if(results->begin(), results->end(),
                   [](const PipelineResult& r) { return r.NumStops() > 0; });
  ASSERT_TRUE(first_with_stops != results->end());
  TrajectoryId id = first_with_stops->cleaned.id;
  auto raw = strict_store.GetRawTrajectory(id);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, first_with_stops->cleaned);
  auto episodes = strict_store.GetEpisodes(id);
  ASSERT_TRUE(episodes.ok());
  EXPECT_EQ(*episodes, first_with_stops->episodes);
  auto line = strict_store.GetInterpretation(id, "line");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, *first_with_stops->line_layer);
  EXPECT_EQ(strict_store.ListInterpretations(id),
            std::vector<std::string>{"line"});
}

}  // namespace
}  // namespace semitri::core
