#ifndef SEMITRI_STREAM_ANNOTATION_SESSION_H_
#define SEMITRI_STREAM_ANNOTATION_SESSION_H_

// A live semantic-annotation session for one moving object: an
// EpisodeDetector feeding the downstream annotation stages of an
// existing SemiTriPipeline (the paper's "annotation is even required in
// real-time" requirement, §1.2).
//
// Incremental annotation: after every feed that closes episodes the
// session runs a provisional pass over the open trajectory that touches
// only what is new. The region join and map matching run over the
// episodes closed since the last pass and append to the live view's
// layers (both are per-episode pure, and matching is scoped to one
// move); the SoA point batch is extended, not rebuilt; the point layer
// (Viterbi plus posterior over every stop seen so far) is recomputed.
// The store stages write from a per-session StoreWatermark: append
// records carrying only the new points, episodes and semantic episodes
// (each with the row index it starts at), and for the point layer only
// the rows from the first changed stop on. Region joins, map matching
// and WAL bytes per trajectory are therefore O(episodes), not
// O(episodes^2); only the point layer's decode over the stops repeats
// on every pass.
//
// When a raw trajectory closes (gap/period split or Flush), the
// finalization pass reuses the provisional region and line layers,
// annotates and appends only the tail episodes, rewrites the point
// layer and appends the remaining rows, so the store ends in exactly
// the state an offline ProcessTrajectory run would have produced
// (ContentEquals) — that run's WAL holds row-0 writes only.
//
// The watermark, the annotated-episode count and the batch extent are
// not serialized: RestoreState (crash restore, SessionManager::
// AdoptSession after a migration, failover) resets them to zero, so the
// first pass after any restore re-annotates the prefix and writes each
// table from row 0, overwriting whatever the store held for the
// trajectory.
//
// Not thread-safe; stream::SessionManager provides the lock-protected
// multi-object front end.

#include <memory>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "core/annotation_context.h"
#include "core/annotation_scratch.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "stream/episode_detector.h"

namespace semitri::stream {

// Latency-profiler stage names recorded by sessions (extending the
// Fig. 17 per-stage view with the streaming path):
//   * one sample per closed episode, covering the provisional
//     annotation pass that followed its closure;
inline constexpr char kStreamStageEpisodeAnnotation[] =
    "stream_episode_annotation";
//   * one sample per closed trajectory, covering the finalization run
//     (the tail of every annotation layer + store write-back).
inline constexpr char kStreamStageFinalizeTrajectory[] =
    "stream_finalize_trajectory";

struct SessionConfig {
  // Forwarded to EpisodeDetectorConfig::max_buffered_points: bounds the
  // raw points buffered per open trajectory (0 = unbounded).
  size_t max_buffered_points = 0;
  // Retain the final PipelineResult of every closed trajectory in the
  // session (results()); unbounded, so off by default.
  bool keep_results = false;
};

class AnnotationSession {
 public:
  // Everything but the detector-policy configs comes from `pipeline`
  // (which must outlive the session): preprocessing / identification /
  // segmentation settings are taken from pipeline->config(), so the
  // streaming output is comparable to the same pipeline's offline path
  // by construction. Trajectory ids are assigned sequentially from
  // `first_id`, exactly as ProcessStream(object_id, stream, first_id).
  AnnotationSession(const core::SemiTriPipeline* pipeline,
                    core::ObjectId object_id, SessionConfig config = {},
                    core::TrajectoryId first_id = 0);

  struct FeedResult {
    // False when the detector rejected the fix (out-of-order or
    // non-finite); nothing else happened.
    bool accepted = true;
    // Episodes of the open trajectory that closed on this fix.
    size_t episodes_closed = 0;
    // A raw trajectory was finalized (split) by this fix.
    bool trajectory_closed = false;
    bool trajectory_discarded = false;
  };

  // Feeds one fix; errors only from annotation stages (a rejected fix
  // is a non-error FeedResult).
  [[nodiscard]] common::Result<FeedResult> Feed(const core::GpsPoint& fix);

  // Stream end: finalizes (or discards) the dangling open trajectory.
  // The session stays usable; a later Feed starts a new trajectory.
  [[nodiscard]] common::Status Flush();

  // Live view of the open trajectory: cleaned prefix, closed episodes,
  // and the provisional annotation layers over that prefix. Reset
  // whenever a trajectory closes.
  const core::PipelineResult& partial() const { return partial_; }

  // Final results of closed trajectories (only with
  // SessionConfig::keep_results).
  const std::vector<core::PipelineResult>& results() const {
    return results_;
  }

  struct Stats {
    EpisodeDetector::Stats detector;
    // Provisional annotation passes run (>= 1 closed episode each).
    size_t annotation_passes = 0;
  };
  Stats stats() const { return {detector_.stats(), annotation_passes_}; }

  const EpisodeDetector& detector() const { return detector_; }
  core::ObjectId object_id() const { return object_id_; }

  // True while an unfinished trajectory is buffered: dropping the
  // session now (without Flush) loses its un-finalized rows.
  bool has_open_state() const { return detector_.has_open_trajectory(); }

  // Raw fixes currently buffered for the open trajectory (what the
  // SessionManager charges against its global buffered-fix budget).
  size_t buffered_points() const { return detector_.buffered_points(); }

  // The session's reusable data-plane working memory: every provisional
  // and finalization annotation pass runs out of it, so per-fix work
  // stops allocating once buffers reach the workload's high-water mark
  // (asserted by tests/stream_scratch_test.cc).
  const core::AnnotationScratch& scratch() const { return scratch_; }

  // --- checkpoint support ---------------------------------------------
  // Serializes the live session (detector state, partial result,
  // retained results, counters) so a session constructed against the
  // same pipeline/config/object resumes mid-stream and converges to
  // the exact store state an uninterrupted run would produce. The
  // incremental watermarks are not part of the state; RestoreState
  // zeroes them (see the header comment).
  void SaveState(common::StateWriter* w) const;
  [[nodiscard]] common::Status RestoreState(common::StateReader* r);

 private:
  // Folds newly finalized cleaned points + closed episodes into
  // partial_.
  void SyncPartial(const std::vector<core::Episode>& closed);
  // Provisional downstream pass over partial_ (store writes included,
  // latency recorded per closed episode under
  // kStreamStageEpisodeAnnotation).
  [[nodiscard]] common::Status AnnotatePrefix(size_t episodes_closed);
  // Finalization pass + store write-back for a closed trajectory,
  // continuing from the provisional layers.
  [[nodiscard]] common::Status FinalizeClosed(ClosedTrajectory closed);
  // Runs the pipeline's RunDownstreamStages over `result` as an
  // incremental pass (profiler: null for provisional passes), leaving
  // the result in `result` even on error. Advances the incremental
  // state after a clean pass; a failed stage resets it, so the next
  // pass annotates and writes in full.
  [[nodiscard]] common::Status RunIncremental(
      core::PipelineResult* result, analytics::LatencyProfiler* profiler);
  // Drops the live view and the incremental state of the open
  // trajectory.
  void ResetOpenTrajectory();

  const core::SemiTriPipeline* pipeline_;
  core::ObjectId object_id_;
  SessionConfig config_;
  EpisodeDetector detector_;
  core::PipelineResult partial_;
  std::vector<core::PipelineResult> results_;
  core::AnnotationScratch scratch_;
  size_t annotation_passes_ = 0;
  // Incremental state of the open trajectory (not serialized): episodes
  // of partial_ whose region and line annotations are in its layers,
  // cleaned points mirrored in scratch_.batch, and the rows the store
  // holds.
  size_t annotated_episodes_ = 0;
  size_t batch_points_ = 0;
  core::StoreWatermark store_watermark_;
};

}  // namespace semitri::stream

#endif  // SEMITRI_STREAM_ANNOTATION_SESSION_H_
