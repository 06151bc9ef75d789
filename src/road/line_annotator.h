#ifndef SEMITRI_ROAD_LINE_ANNOTATOR_H_
#define SEMITRI_ROAD_LINE_ANNOTATOR_H_

// Semantic Line Annotation Layer — paper §4.2, Algorithm 2 end-to-end.
//
// Runs the global map matcher over the move episodes of a trajectory,
// groups consecutive points matched to the same road segment into
// semantic episodes (segmentId, time_in, time_out, mode), and infers
// the transportation mode of each run from motion features and the
// matched road type.
//
// Data plane: the trajectory arrives as a traj::PointBatch; each move
// episode is a zero-copy PointView slice of it. All working memory
// (map-matching CSR table, matched points, run grouping, motion
// features) lives in the caller's LineScratch so repeated annotation
// runs allocate nothing in steady state.

#include <vector>

#include "core/types.h"
#include "road/map_matcher.h"
#include "road/road_network.h"
#include "road/transport_mode.h"
#include "traj/point_batch.h"

namespace semitri::road {

struct LineAnnotatorConfig {
  GlobalMatchConfig match;
  ModeInferenceConfig mode;
  // Runs shorter than this many points are merged into their successor
  // run (suppresses single-point match flicker). 1 keeps all runs.
  size_t min_run_points = 2;
};

// A run of consecutive points matched to the same road segment
// (Algorithm 2's preSeg grouping); `end` is exclusive.
struct MatchRun {
  core::PlaceId segment;
  size_t begin;
  size_t end;
};

// Reusable working set of one line-annotation pass, owned by the caller
// (one per annotation run/session — see core::AnnotationScratch).
struct LineScratch {
  MatchScratch match;
  MotionScratch motion;
  std::vector<MatchedPoint> matches;
  std::vector<MatchRun> runs;
  std::vector<MatchRun> runs_tmp;

  size_t capacity_bytes() const {
    return match.capacity_bytes() + motion.capacity_bytes() +
           matches.capacity() * sizeof(MatchedPoint) +
           (runs.capacity() + runs_tmp.capacity()) * sizeof(MatchRun);
  }
};

class LineAnnotator {
 public:
  // `network` must outlive the annotator.
  explicit LineAnnotator(const RoadNetwork* network,
                         LineAnnotatorConfig config = {})
      : network_(network),
        matcher_(network, config.match),
        classifier_(config.mode),
        config_(config) {}

  // Annotates one move episode's points, appending one semantic episode
  // per matched road-segment run (Algorithm 2 lines 18–24) to `out`.
  // `source_episode` tags the emitted episodes with their origin.
  // `scratch` (when non-null) supplies all working memory.
  void AnnotateMove(const traj::PointView& pts, size_t source_episode,
                    LineScratch* scratch,
                    std::vector<core::SemanticEpisode>* out) const;

  // The same with local scratch, returning the episodes.
  std::vector<core::SemanticEpisode> AnnotateMove(const traj::PointView& pts,
                                                  size_t source_episode) const;

  // Annotates every kMove episode of the batch; interpretation "line".
  core::StructuredSemanticTrajectory Annotate(
      const traj::PointBatch& batch, const std::vector<core::Episode>& episodes,
      LineScratch* scratch = nullptr) const;

  // Appends the semantic episodes of the kMove episodes among
  // episodes[first, size) to `out` — the incremental form of Annotate
  // (matching is scoped to one move, so each move's episodes depend only
  // on its own points), which is this with first = 0.
  void AnnotateFrom(const traj::PointBatch& batch,
                    const std::vector<core::Episode>& episodes, size_t first,
                    LineScratch* scratch,
                    std::vector<core::SemanticEpisode>* out) const;

  const GlobalMapMatcher& matcher() const { return matcher_; }
  const TransportModeClassifier& classifier() const { return classifier_; }

 private:
  const RoadNetwork* network_;
  GlobalMapMatcher matcher_;
  TransportModeClassifier classifier_;
  LineAnnotatorConfig config_;
};

}  // namespace semitri::road

#endif  // SEMITRI_ROAD_LINE_ANNOTATOR_H_
