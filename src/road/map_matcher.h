#ifndef SEMITRI_ROAD_MAP_MATCHER_H_
#define SEMITRI_ROAD_MAP_MATCHER_H_

// Global map matching — paper §4.2, Algorithm 2.
//
// For each GPS point Q of a move episode:
//   1. select candidate road segments near Q (R*-tree);
//   2. point–segment distance d(Q, AiAj)   (Eq. 1, geo::Segment);
//   3. localScore(Q, seg)  = dmin(Q) / d(Q, seg)            (Eq. 2);
//   4. globalScore(Q, seg) = Σk wk · localScore(Qk, seg)/Σk wk  (Eq. 3)
//      with Gaussian kernel weights wk over the spatial distance
//      d(Q0, Qk), cut off at the global view radius R          (Eq. 4);
//   5. match Q to the highest-scoring segment; optionally snap.
//
// R and σ are expressed in units of the trace's median point spacing so
// the sweep R ∈ {1..5}, σ ∈ {0.5R .. 2R} of paper Fig. 10 transfers
// across sampling rates (the paper tunes them per input source).
//
// Data plane: points arrive as a traj::PointView (SoA), candidate
// distances run through the batched geo::DistancesToSegments kernel over
// endpoints gathered from the network's segment SoA, and the per-point
// candidate sets live in one flat CSR table (MatchScratch) with rows
// sorted by segment id — the Eq. 3 neighbor lookup is a binary search
// instead of a per-point hash map. All working memory comes from the
// caller's MatchScratch, so steady-state matching allocates nothing.
//
// GeometricMapMatcher is the classical point-to-curve baseline
// (Bernstein & Kornhauser, [3]) used in the ablation bench.

#include <vector>

#include "core/types.h"
#include "road/road_network.h"
#include "traj/point_batch.h"

namespace semitri::road {

struct MatchedPoint {
  core::PlaceId segment = core::kInvalidPlaceId;
  double score = 0.0;       // winning globalScore (localScore for baseline)
  geo::Point snapped;       // corrected position on the matched segment
};

struct GlobalMatchConfig {
  // Global view radius R, in units of median point spacing.
  double view_radius = 2.0;
  // Kernel bandwidth σ as a fraction of R (σ = sigma_ratio * R).
  double sigma_ratio = 0.5;
  // Candidate-segment search radius around each point, meters.
  double candidate_radius_meters = 60.0;
  // Hard cap on context-window points on each side.
  size_t max_window_points = 64;
};

// Reusable working set of one matching pass. Owned by the caller (one
// per annotation run/session — see core::AnnotationScratch) so repeated
// passes reuse capacity instead of reallocating per trajectory.
struct MatchScratch {
  // Per-point candidate query buffer (sorted by segment id before use).
  std::vector<core::PlaceId> candidates;
  // CSR candidate table over all points of the pass: row i is
  // cand_ids[row_begin[i] .. row_begin[i+1]), ascending, with the Eq. 2
  // localScore alongside.
  std::vector<size_t> row_begin;
  std::vector<core::PlaceId> cand_ids;
  std::vector<double> cand_scores;
  // Batched-kernel staging: gathered candidate endpoints + distances.
  std::vector<double> ax, ay, bx, by, dists;
  // Eq. 3 context window (point index + Gaussian weight).
  std::vector<size_t> window_index;
  std::vector<double> window_weight;
  // Per-candidate Eq. 3 numerators of the point being scored.
  std::vector<double> num;
  // MedianSpacing working set.
  std::vector<double> spacings;

  // Total reserved capacity in bytes across all buffers — the
  // steady-state allocation contract is asserted on this (see
  // tests/stream_scratch_test.cc).
  size_t capacity_bytes() const {
    return candidates.capacity() * sizeof(core::PlaceId) +
           row_begin.capacity() * sizeof(size_t) +
           cand_ids.capacity() * sizeof(core::PlaceId) +
           (cand_scores.capacity() + ax.capacity() + ay.capacity() +
            bx.capacity() + by.capacity() + dists.capacity() +
            window_weight.capacity() + spacings.capacity() +
            num.capacity()) *
               sizeof(double) +
           window_index.capacity() * sizeof(size_t);
  }
};

class GlobalMapMatcher {
 public:
  // `network` must outlive the matcher.
  explicit GlobalMapMatcher(const RoadNetwork* network,
                            GlobalMatchConfig config = {})
      : network_(network), config_(config) {}

  // Matches every point of `pts` (Algorithm 2 steps 1–5) into `out`
  // (cleared and resized). Points with no candidate segment get
  // segment == kInvalidPlaceId and keep their raw position. `scratch`
  // (when non-null) supplies all working memory.
  void MatchPoints(const traj::PointView& pts, MatchScratch* scratch,
                   std::vector<MatchedPoint>* out) const;

  // The same with local scratch, returning the matches.
  std::vector<MatchedPoint> MatchPoints(const traj::PointView& pts) const;

  // Median spacing (m) between consecutive points; the unit behind R/σ.
  // `scratch` (when non-null) holds the spacing working set.
  static double MedianSpacing(const traj::PointView& pts,
                              std::vector<double>* scratch = nullptr);

  const GlobalMatchConfig& config() const { return config_; }

 private:
  const RoadNetwork* network_;
  GlobalMatchConfig config_;
};

// Baseline: independently snaps each point to the nearest segment
// (point-to-curve geometric matching).
class GeometricMapMatcher {
 public:
  explicit GeometricMapMatcher(const RoadNetwork* network)
      : network_(network) {}

  std::vector<MatchedPoint> MatchPoints(const traj::PointView& pts) const;

 private:
  const RoadNetwork* network_;
};

// Fraction of points whose matched segment equals the ground truth
// (points with invalid ground truth are skipped).
double MatchingAccuracy(const std::vector<MatchedPoint>& matches,
                        const std::vector<core::PlaceId>& ground_truth);

}  // namespace semitri::road

#endif  // SEMITRI_ROAD_MAP_MATCHER_H_
