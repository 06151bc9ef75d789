#ifndef SEMITRI_CORE_PIPELINE_H_
#define SEMITRI_CORE_PIPELINE_H_

// SeMiTri end-to-end pipeline (paper Fig. 2). It runs a fixed stage
// sequence (core/stages.h): the Trajectory Computation Layer (cleaning,
// stop/move episodes), then the region, line and point annotation
// layers, writing their products into the Semantic Trajectory Store,
// with per-stage latency accounted under the Fig. 17 stage names. A
// pipeline is an immutable AnnotationModel (core/annotation_model.h),
// which pipelines over one world and config may share, plus its own
// sinks: the store and the latency profiler. A layer without its
// semantic source, and a store stage without a store, is left out of
// the sequence, so partial pipelines stay partial.

#include <memory>
#include <utility>
#include <vector>

#include "analytics/latency_profiler.h"
#include "common/status.h"
#include "core/annotation_context.h"
#include "core/annotation_model.h"
#include "core/health.h"
#include "core/stages.h"
#include "core/types.h"
#include "store/semantic_trajectory_store.h"

namespace semitri::core {

class SemiTriPipeline {
 public:
  // Runs `model`'s layers (non-null; pipelines may share one model).
  // `store` and `profiler` are optional sinks (both internally
  // synchronized, so a pipeline with sinks may be shared across
  // threads); both must outlive the pipeline.
  explicit SemiTriPipeline(std::shared_ptr<const AnnotationModel> model,
                           store::SemanticTrajectoryStore* store = nullptr,
                           analytics::LatencyProfiler* profiler = nullptr);

  // A pipeline over a model of its own:
  // AnnotationModel::Build(regions, roads, pois, config). Any of
  // `regions` / `roads` / `pois` may be null (that layer is left out);
  // the world must outlive the pipeline.
  SemiTriPipeline(const region::RegionSet* regions,
                  const road::RoadNetwork* roads, const poi::PoiSet* pois,
                  PipelineConfig config = {},
                  store::SemanticTrajectoryStore* store = nullptr,
                  analytics::LatencyProfiler* profiler = nullptr)
      : SemiTriPipeline(
            AnnotationModel::Build(regions, roads, pois, std::move(config)),
            store, profiler) {}

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
  // did not change; the store stages write only the rows past each
  // table's watermark. Without a watermark every store stage writes
  // each entry whole, from row 0, exactly as offline.
  [[nodiscard]] common::Status RunDownstreamStages(
      AnnotationContext& context) const;

  // One row per stage this pipeline runs, in execution order, with its
  // latency digest from the attached profiler. Budget gauges stay zero
  // here — the streaming SessionManager::Health merges them in.
  HealthSnapshot Health() const;

  const PipelineConfig& config() const { return model_->config(); }
  const std::shared_ptr<const AnnotationModel>& model() const {
    return model_;
  }
  // Optional sinks this pipeline writes to (null when not supplied).
  store::SemanticTrajectoryStore* store() const { return store_; }
  analytics::LatencyProfiler* profiler() const { return profiler_; }

 private:
  // Whether RunStage times a stage into the profiler.
  enum class StageKind {
    kProfiled,
    kWriteBack,  // the unprofiled store_interpretation tail
  };

  // Runs `body` as stage `name`: fires the "stage:<name>" fault site and
  // times profiled stages into context.profiler. Any failure fails the
  // run.
  template <typename Body>
  common::Status RunStage(const char* name, StageKind kind,
                          AnnotationContext& context, Body body) const;

  std::shared_ptr<const AnnotationModel> model_;
  store::SemanticTrajectoryStore* store_;
  analytics::LatencyProfiler* profiler_;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_PIPELINE_H_
