// Fig. 17 — per-user latency distribution of SeMiTri's stages for
// processing phone trajectories: compute episodes, store episodes, map
// matching, store matched results, landuse join.
//
// Paper shape to reproduce: computing episodes is the cheapest stage by
// orders of magnitude; storing results dominates (the paper's
// PostgreSQL writes); map matching costs more than the landuse join.
// Paper means (s/daily trajectory): compute 0.008, store episodes
// 3.959, map match 0.162, store match 0.292, landuse 0.088.
//
// Each user's store is a durable WAL store with sync_every_put, which
// commits every write as the paper's PostgreSQL inserts did. Without
// the per-put fsync a WAL append costs less than computing the episodes
// and the paper's headline flips (EXPERIMENTS.md).
//
// The record holds every stage's sample count and p50/p99 (ms) pooled
// over users, the pooled store_episode/compute_episode mean ratio
// (ungated), and gates users_store_episode_not_above_compute at zero:
// the number of users whose mean store_episode is not above their mean
// compute_episode.

#include <cstdio>
#include <filesystem>
#include <string>

#include "analytics/latency_profiler.h"
#include "bench_util.h"
#include "core/pipeline.h"
#include "datagen/presets.h"

using namespace semitri;

int main() {
  benchutil::BenchReporter reporter("fig17_latency");
  benchutil::PrintHeader("Fig. 17: per-layer latency per daily trajectory",
                         "paper Fig. 17 + the Sec 5.4 stage means");

  datagen::World world = benchutil::MakeCity(/*seed=*/901);
  datagen::DatasetFactory factory(&world, /*seed=*/902);
  const int kNumUsers = 6;
  datagen::Dataset people = factory.NokiaPeople(kNumUsers, /*num_days=*/14);

  std::string dir =
      (std::filesystem::temp_directory_path() / "semitri_fig17").string();
  std::filesystem::remove_all(dir);

  constexpr size_t kNumStages = 6;
  const char* stages[kNumStages] = {
      core::kStageComputeEpisode, core::kStageStoreEpisode,
      core::kStageMapMatch,       core::kStageStoreMatch,
      core::kStageLanduseJoin,    core::kStagePointAnnotation};

  std::printf("%-6s %14s %14s %14s %14s %14s %14s\n", "user",
              "compute_ep", "store_ep", "map_match", "store_match",
              "landuse", "point_annot");
  // One profiler pools every user's samples; a user's means are what
  // its run added to the pooled totals and counts.
  analytics::LatencyProfiler profiler;
  size_t users_store_not_above_compute = 0;
  for (const datagen::SimulatedTrack& track : people.tracks) {
    store::StoreConfig store_config;
    store_config.durable_dir = dir + "/user" + std::to_string(track.object_id);
    store_config.sync_every_put = true;
    store::SemanticTrajectoryStore store(store_config);
    double total_before[kNumStages];
    size_t count_before[kNumStages];
    for (size_t s = 0; s < kNumStages; ++s) {
      total_before[s] = profiler.Total(stages[s]);
      count_before[s] = profiler.Count(stages[s]);
    }
    core::SemiTriPipeline pipeline(&world.regions, &world.roads,
                                   &world.pois, core::PipelineConfig{},
                                   &store, &profiler);
    auto results = pipeline.ProcessStream(
        track.object_id, track.points,
        static_cast<core::TrajectoryId>(track.object_id) * 1000);
    if (!results.ok()) {
      std::fprintf(stderr, "pipeline failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6lld", static_cast<long long>(track.object_id + 1));
    double mean[kNumStages];
    for (size_t s = 0; s < kNumStages; ++s) {
      size_t n = profiler.Count(stages[s]) - count_before[s];
      mean[s] = n == 0 ? 0.0
                       : (profiler.Total(stages[s]) - total_before[s]) /
                             static_cast<double>(n);
      std::printf(" %12.6fs", mean[s]);
    }
    std::printf("\n");
    if (!(mean[1] > mean[0])) ++users_store_not_above_compute;
  }

  for (const char* stage : stages) {
    analytics::LatencyProfiler::StageSummary summary =
        profiler.Summarize(stage);
    reporter.Metric(std::string(stage) + "_samples", summary.count);
    reporter.Metric(std::string(stage) + "_p50_ms", summary.p50 * 1e3);
    reporter.Metric(std::string(stage) + "_p99_ms", summary.p99 * 1e3);
  }
  double compute_mean = profiler.Mean(core::kStageComputeEpisode);
  double store_over_compute =
      compute_mean > 0.0
          ? profiler.Mean(core::kStageStoreEpisode) / compute_mean
          : 0.0;
  reporter.Metric("store_over_compute_episode", store_over_compute);
  reporter.GateZero("users_store_episode_not_above_compute",
                    users_store_not_above_compute);

  std::printf("\npaper means (s/daily trajectory, PostgreSQL store): "
              "compute 0.008, store episodes 3.959,\nmap match 0.162, "
              "store match 0.292, landuse join 0.088 — storing dominates "
              "computing,\nas it does above (durable WAL store, one fsync "
              "per put): store_episode is\n%.1fx compute_episode pooled, "
              "and %zu of %d users have it not above compute.\n",
              store_over_compute, users_store_not_above_compute,
              kNumUsers);
  std::filesystem::remove_all(dir);
  return reporter.Write() ? 0 : 1;
}
