#ifndef SEMITRI_CORE_PIPELINE_H_
#define SEMITRI_CORE_PIPELINE_H_

// SeMiTri end-to-end pipeline (paper Fig. 2). It runs a fixed stage
// sequence (core/stages.h): the Trajectory Computation Layer (cleaning,
// stop/move episodes), then the region, line and point annotation
// layers, writing their products into the Semantic Trajectory Store,
// with per-stage latency accounted under the Fig. 17 stage names. A
// layer without its semantic source, and a store stage without a store,
// is left out of the sequence, so partial pipelines stay partial.

#include <memory>
#include <vector>

#include "analytics/latency_profiler.h"
#include "common/status.h"
#include "core/annotation_context.h"
#include "core/health.h"
#include "core/stages.h"
#include "core/types.h"
#include "poi/point_annotator.h"
#include "region/region_annotator.h"
#include "road/line_annotator.h"
#include "store/semantic_trajectory_store.h"
#include "traj/identification.h"
#include "traj/preprocess.h"
#include "traj/segmentation.h"

namespace semitri::core {

// What a run does when an annotation layer fails: fail fast (default —
// the error aborts the run) or skip and record (the layer is dropped, a
// StageReport lands on the result and the later stages still run —
// graceful degradation, e.g. a broken POI repository still yields
// region+line layers). A stage runs once per run; it is never retried.
struct FailurePolicy {
  enum class OnFailure {
    kAbort,  // propagate the error; the run stops
    kSkip,   // record a StageReport and continue with later stages
  };

  OnFailure on_failure = OnFailure::kAbort;

  static FailurePolicy FailFast() { return {}; }
  static FailurePolicy SkipAndRecord() {
    FailurePolicy p;
    p.on_failure = OnFailure::kSkip;
    return p;
  }
};

struct PipelineConfig {
  traj::PreprocessConfig preprocess;
  traj::IdentificationConfig identification;
  traj::SegmentationConfig segmentation;
  region::RegionAnnotatorConfig region;
  road::LineAnnotatorConfig line;
  poi::PointAnnotatorConfig point;
  // Failure policy applied to the three annotation-layer stages
  // (landuse_join, map_match, point_annotation). The default fails
  // fast; FailurePolicy::SkipAndRecord() degrades gracefully instead —
  // a failing semantic source (e.g. an unreachable POI repository)
  // yields the remaining layers plus a StageReport rather than an
  // aborted trajectory. Trajectory computation and store stages always
  // fail fast: without episodes nothing downstream is meaningful, and a
  // store failure means data loss the caller must see.
  FailurePolicy annotation_failure;
};

class SemiTriPipeline {
 public:
  // Any of `regions` / `roads` / `pois` may be null: the corresponding
  // layer is skipped (the paper notes SeMiTri produces partial
  // annotations when 3rd-party sources are missing). `store` and
  // `profiler` are optional sinks (both internally synchronized, so a
  // pipeline with sinks may be shared across threads); all pointers
  // must outlive the pipeline.
  SemiTriPipeline(const region::RegionSet* regions,
                  const road::RoadNetwork* roads, const poi::PoiSet* pois,
                  PipelineConfig config = {},
                  store::SemanticTrajectoryStore* store = nullptr,
                  analytics::LatencyProfiler* profiler = nullptr);

  // Full per-trajectory processing: every stage, from compute_episode
  // (clean -> episodes) through the annotation layers to the store.
  [[nodiscard]] common::Result<PipelineResult> ProcessTrajectory(
      const RawTrajectory& raw) const;

  // Splits a continuous GPS stream into raw trajectories and processes
  // each.
  [[nodiscard]] common::Result<std::vector<PipelineResult>> ProcessStream(
      ObjectId object_id, const std::vector<GpsPoint>& stream,
      TrajectoryId first_id = 0) const;

  // Runs every stage except trajectory computation over an
  // already-computed cleaned trace + episode table (`computed.cleaned`
  // and `computed.episodes` must be set). Annotation layers, store rows
  // and latency samples come out exactly as a full ProcessTrajectory on
  // the underlying raw trajectory would produce them. A streaming
  // session's incremental passes (stream::AnnotationSession) must equal
  // this run over the same cleaned prefix and episodes.
  [[nodiscard]] common::Result<PipelineResult> AnnotateComputed(
      PipelineResult computed) const;

  // The six stages after compute_episode, in order, over a context whose
  // result already carries the cleaned trace and episodes; stops at the
  // first stage that fails the run. Rows are written to store(), latency
  // samples to context.profiler.
  //
  // Incremental runs (context.store_watermark / annotated_episodes, set
  // by stream::AnnotationSession): the region and line stages annotate
  // only episodes past annotated_episodes and append to the layer
  // already on the result; the point stage always recomputes its layer
  // (Viterbi over every stop) and lowers its watermark to the rows that
  // did not change; the store stages log append records for the rows
  // past each table's watermark instead of full puts. Without a
  // watermark every store stage writes full puts, exactly as offline.
  [[nodiscard]] common::Status RunDownstreamStages(
      AnnotationContext& context) const;

  // One row per stage this pipeline runs, in execution order, with its
  // latency digest from the attached profiler. Budget gauges stay zero
  // here — the streaming SessionManager::Health merges them in.
  HealthSnapshot Health() const;

  const PipelineConfig& config() const { return config_; }
  const traj::TrajectoryIdentifier& identifier() const { return identifier_; }
  const traj::StopMoveSegmenter& segmenter() const { return segmenter_; }
  // Optional sinks this pipeline writes to (null when not supplied).
  store::SemanticTrajectoryStore* store() const { return store_; }
  analytics::LatencyProfiler* profiler() const { return profiler_; }

 private:
  // How RunStage treats a stage's latency and failure.
  enum class StageKind {
    kStep,       // profiled; a failure fails the run
    kLayer,      // profiled; a failure follows config_.annotation_failure
    kWriteBack,  // unprofiled; a failure fails the run
  };

  // Runs `body` as stage `name`: fires the "stage:<name>" fault site,
  // times profiled stages into context.profiler, and on failure records
  // a StageReport on context.result. Returns OK when a failing layer is
  // skipped by its policy.
  template <typename Body>
  common::Status RunStage(const char* name, StageKind kind,
                          AnnotationContext& context, Body body) const;

  PipelineConfig config_;
  traj::Preprocessor preprocessor_;
  traj::TrajectoryIdentifier identifier_;
  traj::StopMoveSegmenter segmenter_;
  std::unique_ptr<region::RegionAnnotator> region_annotator_;
  std::unique_ptr<road::LineAnnotator> line_annotator_;
  std::unique_ptr<poi::PointAnnotator> point_annotator_;
  store::SemanticTrajectoryStore* store_;
  analytics::LatencyProfiler* profiler_;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_PIPELINE_H_
