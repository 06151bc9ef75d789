#ifndef SEMITRI_CORE_PIPELINE_H_
#define SEMITRI_CORE_PIPELINE_H_

// SeMiTri end-to-end pipeline (paper Fig. 2), as a thin facade over an
// annotation stage graph: the Trajectory Computation Layer (cleaning,
// identification, stop/move episodes) feeds the three annotation layers
// (region / line / point), which write their products into the Semantic
// Trajectory Store with per-stage latency accounted under the Fig. 17
// stage names. Layers are independent stages, so a single layer can be
// recomputed from cached episodes (ReannotateLayer) — e.g. after a POI
// repository refresh — without redoing trajectory computation.

#include <memory>
#include <optional>
#include <vector>

#include "analytics/latency_profiler.h"
#include "common/status.h"
#include "core/health.h"
#include "core/stage.h"
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

  // Full per-trajectory processing: runs the default stage graph
  // (clean -> episodes -> annotate -> store).
  [[nodiscard]] common::Result<PipelineResult> ProcessTrajectory(
      const RawTrajectory& raw) const;

  // Splits a continuous GPS stream into raw trajectories and processes
  // each.
  [[nodiscard]] common::Result<std::vector<PipelineResult>> ProcessStream(
      ObjectId object_id, const std::vector<GpsPoint>& stream,
      TrajectoryId first_id = 0) const;

  // Recomputes one annotation layer from the cached trajectory
  // computation in `result` (cleaned trace + episodes), leaving the
  // other layers untouched. The recomputed layer is identical to what a
  // full ProcessTrajectory would produce, and is written through to the
  // store sink when one is attached. Error if the layer's semantic
  // source was not supplied.
  [[nodiscard]] common::Result<PipelineResult> ReannotateLayer(PipelineResult result,
                                                 Layer layer) const;

  // Runs every stage except trajectory computation over an
  // already-computed cleaned trace + episode table (`computed.cleaned`
  // and `computed.episodes` must be set). Annotation layers, store rows
  // and latency samples come out exactly as a full ProcessTrajectory on
  // the underlying raw trajectory would produce them. A streaming
  // session's incremental passes (stream::AnnotationSession) must equal
  // this run over the same cleaned prefix and episodes.
  [[nodiscard]] common::Result<PipelineResult> AnnotateComputed(PipelineResult computed)
      const;

  // The stage graph this pipeline runs (finalized; inspect with
  // ExecutionOrder / Find).
  const StageGraph& graph() const { return graph_; }

  // Per-stage latency digests from the attached profiler. Budget gauges
  // stay zero here — the streaming SessionManager::Health merges them
  // in.
  HealthSnapshot Health() const;

  const PipelineConfig& config() const { return config_; }
  const traj::TrajectoryIdentifier& identifier() const { return identifier_; }
  const traj::StopMoveSegmenter& segmenter() const { return segmenter_; }
  // Optional sinks this pipeline writes to (null when not supplied).
  store::SemanticTrajectoryStore* store() const { return store_; }
  analytics::LatencyProfiler* profiler() const { return profiler_; }

 private:
  void BuildDefaultGraph(store::SemanticTrajectoryStore* store);

  PipelineConfig config_;
  traj::Preprocessor preprocessor_;
  traj::TrajectoryIdentifier identifier_;
  traj::StopMoveSegmenter segmenter_;
  std::unique_ptr<region::RegionAnnotator> region_annotator_;
  std::unique_ptr<road::LineAnnotator> line_annotator_;
  std::unique_ptr<poi::PointAnnotator> point_annotator_;
  store::SemanticTrajectoryStore* store_;
  analytics::LatencyProfiler* profiler_;
  StageGraph graph_;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_PIPELINE_H_
