// Quickstart: build a synthetic world, simulate a smartphone user for a
// few days, run the full SeMiTri pipeline, and print the resulting
// structured semantic trajectory — the (place, time, annotation) triple
// view of paper §1.1.
//
//   $ ./quickstart

#include <cstdio>

#include "semitri.h"

using namespace semitri;

int main() {
  // 1) A deterministic synthetic city: landuse grid, typed road network
  //    with metro lines, clustered POIs (stand-ins for Swisstopo / OSM /
  //    the Milan POI repository — see DESIGN.md).
  datagen::WorldConfig world_config;
  world_config.seed = 7;
  world_config.extent_meters = 6000.0;
  datagen::World world = datagen::WorldGenerator(world_config).Generate();
  std::printf("world: %zu road segments, %zu landuse cells, %zu POIs\n",
              world.roads.num_segments(), world.regions.size(),
              world.pois.size());

  // 2) Simulate one person for five days (commutes, lunches, errands).
  datagen::DatasetFactory factory(&world, /*seed=*/21);
  datagen::PersonSpec spec = factory.MakePersonSpec(3);  // metro commuter
  datagen::SimulatedTrack track = factory.SimulatePersonDays(0, spec, 5);
  std::printf("simulated %zu GPS fixes, %zu true stops\n",
              track.points.size(), track.stops.size());

  // 3) Run the pipeline: cleaning, daily-trajectory identification,
  //    stop/move episodes, then region + line + point annotation.
  store::SemanticTrajectoryStore store;
  analytics::LatencyProfiler profiler;
  core::PipelineConfig config;
  core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                 config, &store, &profiler);
  common::Result<std::vector<core::PipelineResult>> results =
      pipeline.ProcessStream(/*object_id=*/0, track.points);
  if (!results.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  std::printf("identified %zu daily trajectories\n\n", results->size());

  // 4) Print the first day as a semantic trajectory.
  const core::PipelineResult& day = results->front();
  std::printf("day 1: %zu points -> %zu episodes (%zu stops, %zu moves)\n",
              day.cleaned.size(), day.episodes.size(), day.NumStops(),
              day.NumMoves());
  if (day.region_layer.has_value()) {
    std::printf("\n-- region layer (landuse episodes) --\n");
    for (const core::SemanticEpisode& ep : day.region_layer->episodes) {
      std::printf("  [%5.0f..%5.0f] %-4s landuse=%s %s\n", ep.time_in,
                  ep.time_out, core::EpisodeKindName(ep.kind),
                  ep.FindAnnotation("landuse").c_str(),
                  ep.FindAnnotation("region_name").c_str());
    }
  }
  if (day.line_layer.has_value()) {
    std::printf("\n-- line layer (map-matched moves, first 12) --\n");
    size_t shown = 0;
    for (const core::SemanticEpisode& ep : day.line_layer->episodes) {
      if (shown++ >= 12) break;
      std::printf("  [%5.0f..%5.0f] road=%-18s type=%-11s mode=%s\n",
                  ep.time_in, ep.time_out,
                  ep.FindAnnotation("road_name").c_str(),
                  ep.FindAnnotation("road_type").c_str(),
                  ep.FindAnnotation("transport_mode").c_str());
    }
  }
  if (day.point_layer.has_value()) {
    std::printf("\n-- point layer (stop activities) --\n");
    for (const core::SemanticEpisode& ep : day.point_layer->episodes) {
      std::printf("  [%5.0f..%5.0f] category=%-12s poi=%s\n", ep.time_in,
                  ep.time_out, ep.FindAnnotation("poi_category").c_str(),
                  ep.FindAnnotation("poi_name").c_str());
    }
  }

  std::printf("\nstore: %zu GPS records, %zu episodes, %zu semantic "
              "episodes\n",
              store.num_gps_records(), store.num_episodes(),
              store.num_semantic_episodes());
  std::printf("stage latencies (mean s/trajectory):\n");
  for (const std::string& stage : profiler.Stages()) {
    std::printf("  %-22s %.6f\n", stage.c_str(), profiler.Mean(stage));
  }
  return 0;
}
