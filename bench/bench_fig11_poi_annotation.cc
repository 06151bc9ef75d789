// Fig. 11 — Semantic stops/trajectories by point annotation on the
// Milan private-car data: percentage of each POI category in (a) the
// POI repository, (b) the HMM-annotated stops, (c) the trajectory
// categories (Eq. 8).
//
// Paper shape to reproduce: the repository is person-life/item-sale
// heavy; annotated stops concentrate on item sale (~56 %) then person
// life (~24 %); the trajectory-category distribution is statistically
// similar to the stop distribution (≈1.7 stops per trajectory).

#include <cmath>
#include <cstdio>
#include <vector>

#include "analytics/distribution.h"
#include "analytics/trajectory_stats.h"
#include "bench_util.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "index/grid_index.h"
#include "poi/observation_model.h"

using namespace semitri;

namespace {

// Pre-refactor grid precompute, kept verbatim as the scalar reference
// for the kernel_speedup gate: per-cell nested-vector densities, and a
// per-POI AoS walk (PoiSet::Get + SigmaFor + per-POI sigma arithmetic)
// — the loop AccumulateGaussianDensities over the SoA POI mirror
// replaced. `grid` holds the POI ids bucketed by cell. Returns a
// checksum so the work cannot be optimized away.
double ReferenceGridPrecompute(const poi::PoiSet& pois,
                               const poi::PoiObservationModel& model,
                               const index::GridIndex<core::PlaceId>& grid,
                               size_t neighbor_ring) {
  const size_t cols = grid.cols();
  const size_t rows = grid.rows();
  std::vector<std::vector<double>> cells(
      cols * rows, std::vector<double>(pois.num_categories(), 0.0));
  double checksum = 0.0;
  for (size_t cy = 0; cy < rows; ++cy) {
    for (size_t cx = 0; cx < cols; ++cx) {
      geo::Point center = grid.CellCenter(cx, cy);
      std::vector<double>& densities = cells[cy * cols + cx];
      for (core::PlaceId id : grid.Neighborhood(center, neighbor_ring)) {
        const poi::Poi& p = pois.Get(id);
        double sigma = model.SigmaFor(p.category);
        double d2 = center.SquaredDistanceTo(p.position);
        densities[static_cast<size_t>(p.category)] +=
            std::exp(-d2 / (2.0 * sigma * sigma)) /
            (2.0 * M_PI * sigma * sigma);
      }
      checksum += densities[0];
    }
  }
  return checksum;
}

}  // namespace

int main() {
  benchutil::PrintHeader("Fig. 11: stop/trajectory categories (HMM)",
                         "paper Fig. 11 + Eq. 8 classification");

  datagen::World world = benchutil::MakeCity(/*seed=*/401);
  datagen::DatasetFactory factory(&world, /*seed=*/402);
  datagen::Dataset cars =
      factory.MilanPrivateCars(/*num_cars=*/120, /*num_days=*/7);

  core::PipelineConfig config;
  // Independent errand stops: weakly sticky transitions.
  config.point.default_self_transition = 0.25;
  core::SemiTriPipeline pipeline(nullptr, nullptr, &world.pois, config);

  analytics::LabeledDistribution stop_dist, trajectory_dist;
  size_t num_trajectories = 0, num_stops = 0;
  size_t truth_correct = 0, truth_evaluated = 0;

  for (const datagen::SimulatedTrack& track : cars.tracks) {
    auto results = pipeline.ProcessStream(
        track.object_id, track.points,
        static_cast<core::TrajectoryId>(track.object_id) * 1000);
    if (!results.ok()) {
      std::fprintf(stderr, "pipeline failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    for (const core::PipelineResult& day : *results) {
      if (!day.point_layer.has_value()) continue;
      ++num_trajectories;
      for (const core::SemanticEpisode& ep : day.point_layer->episodes) {
        ++num_stops;
        stop_dist.Add(ep.FindAnnotation("poi_category"));
        // Ground-truth check against the simulated activity.
        for (const auto& true_stop : track.stops) {
          if (true_stop.poi_category < 0) continue;
          double overlap = std::min(ep.time_out, true_stop.time_out) -
                           std::max(ep.time_in, true_stop.time_in);
          if (overlap <
              0.5 * (true_stop.time_out - true_stop.time_in)) {
            continue;
          }
          ++truth_evaluated;
          if (ep.FindAnnotation("poi_category_id") ==
              std::to_string(true_stop.poi_category)) {
            ++truth_correct;
          }
          break;
        }
      }
      int category = analytics::TrajectoryCategory(
          *day.point_layer, world.pois.num_categories());
      if (category >= 0) {
        trajectory_dist.Add(
            world.pois.category_names()[static_cast<size_t>(category)]);
      }
    }
  }

  auto priors = world.pois.CategoryPriors();
  std::printf("%zu daily trajectories, %zu annotated stops (%.2f stops/"
              "trajectory; paper: 1.7)\n\n",
              num_trajectories, num_stops,
              static_cast<double>(num_stops) /
                  static_cast<double>(num_trajectories));
  std::printf("%-14s %8s %8s %12s   %s\n", "category", "POI", "stop",
              "trajectory", "paper (POI/stop)");
  const char* paper_values[] = {"10.9% / ~8%", "17.7% / ~9%",
                                "31.5% / ~56%", "38.6% / ~24%",
                                "1.3% / ~3%"};
  for (size_t c = 0; c < world.pois.num_categories(); ++c) {
    const std::string& name = world.pois.category_names()[c];
    std::printf("%-14s %8s %8s %12s   %s\n", name.c_str(),
                benchutil::Pct(priors[c]).c_str(),
                benchutil::Pct(stop_dist.Fraction(name)).c_str(),
                benchutil::Pct(trajectory_dist.Fraction(name)).c_str(),
                paper_values[c]);
  }
  std::printf("\nground-truth stop-category accuracy: %.1f%% (%zu/%zu)\n",
              100.0 * static_cast<double>(truth_correct) /
                  static_cast<double>(truth_evaluated),
              truth_correct, truth_evaluated);
  std::printf("(the paper has no stop ground truth; the simulator "
              "provides one)\n");

  // --- kernel section (perf-gate) ---------------------------------------
  // Observation-model construction plus a first read of every cell (the
  // batched density fill) vs. the pre-refactor scalar precompute alone,
  // over POI buckets built once outside the timing — the batched side
  // does strictly more work, so the ratio is conservative.
  benchutil::BenchReporter reporter("fig11_poi_annotation");
  poi::ObservationModelConfig model_config;
  const int kIters = 15;
  poi::PoiObservationModel sigma_model(&world.pois, model_config);
  index::GridIndex<core::PlaceId> buckets = sigma_model.grid();
  for (const poi::Poi& p : world.pois.pois()) {
    buckets.Insert(p.position, p.id);
  }
  double checksum = 0.0;
  double batched_checksum = 0.0;
  double kernel_speedup = reporter.GatePairedSpeedup(
      "kernel_speedup", "gauss_batched", "gauss_scalar_ref", kIters,
      [&] {
        poi::PoiObservationModel model(&world.pois, model_config);
        for (size_t cy = 0; cy < model.grid().rows(); ++cy) {
          for (size_t cx = 0; cx < model.grid().cols(); ++cx) {
            batched_checksum += model.CellDensities(cx, cy)[0];
          }
        }
      },
      [&] {
        checksum += ReferenceGridPrecompute(world.pois, sigma_model, buckets,
                                            model_config.neighbor_ring);
      });
  reporter.Metric("scalar_ref_checksum", checksum);
  reporter.Metric("batched_checksum", batched_checksum);
  reporter.Metric("annotated_stops", num_stops);
  reporter.Metric("stop_accuracy",
                  static_cast<double>(truth_correct) /
                      static_cast<double>(truth_evaluated));
  std::printf("\nkernel section: paired-median speedup %.2fx\n",
              kernel_speedup);
  return reporter.Write() ? 0 : 1;
}
