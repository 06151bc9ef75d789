// Fig. 10 — Sensitivity of map-matching accuracy w.r.t. the global view
// radius R and kernel width σ.
//
// Paper shape to reproduce: accuracy is high (>90 %) across the sweep,
// peaks at small R (≈2) with σ = 0.5R, and degrades as R grows
// (over-smoothing) — more for large σ. The paper measured this on
// Krumm's Seattle benchmark; here the drive is simulated with exact
// ground truth.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "datagen/presets.h"
#include "road/map_matcher.h"
#include "traj/point_batch.h"

using namespace semitri;

namespace {

// Pre-refactor matcher, kept verbatim as the in-process scalar
// reference for the kernel_speedup gate: per-point allocating candidate
// sets, AoS Segment::DistanceTo, and hash-map Eq. 2/3 scores — exactly
// the loops the CSR/SoA data plane replaced. Returns a score checksum
// so the work cannot be optimized away.
double ReferenceMatchScalar(const road::RoadNetwork& roads,
                            const road::GlobalMatchConfig& config,
                            const traj::PointView& pts) {
  const size_t n = pts.size;
  if (n == 0) return 0.0;
  auto at = [&](size_t i) { return geo::Point{pts.xs[i], pts.ys[i]}; };
  std::vector<double> spacings;
  spacings.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    spacings.push_back(at(i).DistanceTo(at(i - 1)));
  }
  double spacing = 1.0;
  if (!spacings.empty()) {
    size_t mid = spacings.size() / 2;
    std::nth_element(spacings.begin(), spacings.begin() + mid,
                     spacings.end());
    spacing = spacings[mid] > 1e-6 ? spacings[mid] : 1.0;
  }
  const double radius_m = config.view_radius * spacing;
  const double sigma_m = config.sigma_ratio * radius_m;
  const double two_sigma2 = 2.0 * sigma_m * sigma_m;

  std::vector<std::unordered_map<core::PlaceId, double>> local(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<core::PlaceId> candidates =
        roads.CandidateSegments(at(i), config.candidate_radius_meters);
    if (candidates.empty()) continue;
    double dmin = std::numeric_limits<double>::infinity();
    std::vector<double> dists(candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      dists[c] =
          std::max(roads.segment(candidates[c]).shape.DistanceTo(at(i)),
                   1e-3);
      dmin = std::min(dmin, dists[c]);
    }
    auto& scores = local[i];
    for (size_t c = 0; c < candidates.size(); ++c) {
      scores[candidates[c]] = dmin / dists[c];
    }
  }

  double checksum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (local[i].empty()) continue;
    struct Neighbor {
      size_t index;
      double weight;
    };
    std::vector<Neighbor> window;
    window.push_back({i, 1.0});
    for (size_t k = 1; k <= config.max_window_points; ++k) {
      bool any = false;
      if (i >= k) {
        double d = at(i).DistanceTo(at(i - k));
        if (d < radius_m) {
          window.push_back({i - k, std::exp(-(d * d) / two_sigma2)});
          any = true;
        }
      }
      if (i + k < n) {
        double d = at(i).DistanceTo(at(i + k));
        if (d < radius_m) {
          window.push_back({i + k, std::exp(-(d * d) / two_sigma2)});
          any = true;
        }
      }
      if (!any) break;
    }
    core::PlaceId best_seg = core::kInvalidPlaceId;
    double best_score = -1.0;
    for (const auto& [seg, local_score] : local[i]) {
      double num = 0.0;
      double den = 0.0;
      for (const Neighbor& nb : window) {
        den += nb.weight;
        auto it = local[nb.index].find(seg);
        if (it != local[nb.index].end()) num += nb.weight * it->second;
      }
      double score = den > 0.0 ? num / den : local_score;
      if (score > best_score || (score == best_score && seg < best_seg)) {
        best_score = score;
        best_seg = seg;
      }
    }
    checksum += best_score;
  }
  return checksum;
}

}  // namespace

int main() {
  benchutil::PrintHeader("Fig. 10: map-matching accuracy vs R and sigma",
                         "paper Fig. 10 (Krumm benchmark sweep)");

  // Dense downtown grid (120 m blocks) + noisy receiver: the regime
  // where context size genuinely trades off noise suppression against
  // corner smearing, as on Krumm's Seattle benchmark.
  datagen::WorldConfig wc;
  wc.seed = 301;
  wc.extent_meters = 4000.0;
  wc.street_spacing_meters = 120.0;
  wc.num_pois = 200;
  datagen::World world = datagen::WorldGenerator(wc).Generate();
  datagen::DatasetFactory factory(&world, /*seed=*/302);
  datagen::Dataset drive =
      factory.SeattleDrive(/*hours=*/2.0, /*gps_sigma_meters=*/12.0);
  const datagen::SimulatedTrack& track = drive.tracks[0];
  std::vector<core::PlaceId> truth;
  truth.reserve(track.truth.size());
  for (const auto& s : track.truth) truth.push_back(s.segment);
  traj::PointBatch batch;
  batch.BuildFrom(track.points);
  std::printf("benchmark drive: %zu GPS points over %zu road segments\n\n",
              track.points.size(), world.roads.num_segments());

  const double sigma_ratios[] = {0.5, 1.0, 1.5, 2.0};
  std::printf("%-6s", "R");
  for (double s : sigma_ratios) std::printf("  sigma=%.1fR", s);
  std::printf("\n");
  double best = 0.0, best_r = 0.0, best_s = 0.0;
  for (int r = 1; r <= 5; ++r) {
    std::printf("%-6d", r);
    for (double s : sigma_ratios) {
      road::GlobalMatchConfig config;
      config.view_radius = static_cast<double>(r);
      config.sigma_ratio = s;
      road::GlobalMapMatcher matcher(&world.roads, config);
      double accuracy =
          road::MatchingAccuracy(matcher.MatchPoints(batch.View()), truth);
      std::printf("  %8.2f%%", accuracy * 100.0);
      if (accuracy > best) {
        best = accuracy;
        best_r = r;
        best_s = s;
      }
    }
    std::printf("\n");
  }
  std::printf("\nbest: %.2f%% at R=%.0f, sigma=%.1fR   (paper: ~95-96%% at"
              " R=2, sigma=0.5R)\n",
              best * 100.0, best_r, best_s);

  road::GeometricMapMatcher baseline(&world.roads);
  double base_acc =
      road::MatchingAccuracy(baseline.MatchPoints(batch.View()), truth);
  std::printf("geometric point-to-curve baseline: %.2f%%\n",
              base_acc * 100.0);

  // --- kernel section (perf-gate) ---------------------------------------
  // The batched CSR matcher vs. the pre-refactor scalar reference above,
  // on identical input. The ratio is machine-relative, so the committed
  // baseline transfers across hosts; bench_compare fails CI when it
  // drops >5% below the committed value.
  benchutil::BenchReporter reporter("fig10_mapmatch_sensitivity");
  road::GlobalMapMatcher matcher(&world.roads);
  road::MatchScratch scratch;
  std::vector<road::MatchedPoint> matched;
  const int kIters = 15;
  double checksum = 0.0;
  double kernel_speedup = reporter.GatePairedSpeedup(
      "kernel_speedup", "match_batched", "match_scalar_ref", kIters,
      [&] { matcher.MatchPoints(batch.View(), &scratch, &matched); },
      [&] {
        checksum += ReferenceMatchScalar(world.roads, matcher.config(),
                                         batch.View());
      });
  reporter.Metric("match_points", matched.size());
  reporter.Metric("scalar_ref_checksum", checksum);
  reporter.Metric("best_accuracy", best);
  std::printf("\nkernel section: paired-median speedup %.2fx\n",
              kernel_speedup);
  return reporter.Write() ? 0 : 1;
}
