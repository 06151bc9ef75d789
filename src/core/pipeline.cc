#include "core/pipeline.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace semitri::core {

SemiTriPipeline::SemiTriPipeline(const region::RegionSet* regions,
                                 const road::RoadNetwork* roads,
                                 const poi::PoiSet* pois,
                                 PipelineConfig config,
                                 store::SemanticTrajectoryStore* store,
                                 analytics::LatencyProfiler* profiler)
    : config_(std::move(config)),
      preprocessor_(config_.preprocess),
      identifier_(config_.identification),
      segmenter_(config_.segmentation),
      store_(store),
      profiler_(profiler) {
  if (regions != nullptr) {
    region_annotator_ =
        std::make_unique<region::RegionAnnotator>(regions, config_.region);
  }
  if (roads != nullptr) {
    line_annotator_ =
        std::make_unique<road::LineAnnotator>(roads, config_.line);
  }
  if (pois != nullptr && !pois->empty()) {
    point_annotator_ =
        std::make_unique<poi::PointAnnotator>(pois, config_.point);
  }
  BuildDefaultGraph(store);
}

void SemiTriPipeline::BuildDefaultGraph(store::SemanticTrajectoryStore* store) {
  auto add = [this](std::unique_ptr<AnnotationStage> stage) {
    common::Status status = graph_.Add(std::move(stage));
    SEMITRI_CHECK(status.ok()) << status.ToString();
  };
  // Registration order is the legacy execution order: the stable
  // topological sort keeps it, so store rows and latency samples appear
  // exactly as the monolithic pipeline produced them.
  add(std::make_unique<ComputeEpisodeStage>(&preprocessor_, &segmenter_));
  if (store != nullptr) {
    add(std::make_unique<StoreEpisodeStage>());
  }
  std::vector<std::string> annotation_stages;
  if (region_annotator_ != nullptr) {
    add(std::make_unique<RegionAnnotationStage>(region_annotator_.get()));
    annotation_stages.push_back(kStageLanduseJoin);
  }
  if (line_annotator_ != nullptr) {
    add(std::make_unique<LineAnnotationStage>(line_annotator_.get()));
    annotation_stages.push_back(kStageMapMatch);
    if (store != nullptr) {
      add(std::make_unique<StoreMatchStage>());
    }
  }
  if (point_annotator_ != nullptr) {
    add(std::make_unique<PointAnnotationStage>(point_annotator_.get()));
    annotation_stages.push_back(kStagePointAnnotation);
  }
  if (store != nullptr) {
    add(std::make_unique<StoreInterpretationStage>(
        std::move(annotation_stages)));
  }
  for (const char* name :
       {kStageLanduseJoin, kStageMapMatch, kStagePointAnnotation}) {
    if (graph_.Find(name) != nullptr) {
      common::Status status =
          graph_.SetFailurePolicy(name, config_.annotation_failure);
      SEMITRI_CHECK(status.ok()) << status.ToString();
    }
  }
  common::Status status = graph_.Finalize();
  SEMITRI_CHECK(status.ok()) << status.ToString();
}

common::Result<PipelineResult> SemiTriPipeline::ProcessTrajectory(
    const RawTrajectory& raw) const {
  AnnotationContext context;
  context.raw = &raw;
  context.store = store_;
  context.profiler = profiler_;
  SEMITRI_RETURN_IF_ERROR(graph_.Run(context));
  return std::move(context.result);
}

common::Result<std::vector<PipelineResult>> SemiTriPipeline::ProcessStream(
    ObjectId object_id, const std::vector<GpsPoint>& stream,
    TrajectoryId first_id) const {
  std::vector<PipelineResult> out;
  std::vector<RawTrajectory> trajectories =
      identifier_.Identify(object_id, stream, first_id);
  out.reserve(trajectories.size());
  for (const RawTrajectory& t : trajectories) {
    common::Result<PipelineResult> result = ProcessTrajectory(t);
    if (!result.ok()) return result.status();
    out.push_back(std::move(*result));
  }
  return out;
}

common::Result<PipelineResult> SemiTriPipeline::AnnotateComputed(
    PipelineResult computed) const {
  AnnotationContext context;
  context.result = std::move(computed);
  context.store = store_;
  context.profiler = profiler_;
  // Same stage sequence as a full run, minus trajectory computation —
  // the stable topological order keeps store rows and latency samples
  // in the exact ProcessTrajectory order.
  for (const std::string& name : graph_.ExecutionOrder()) {
    if (name == kStageComputeEpisode) continue;
    SEMITRI_RETURN_IF_ERROR(graph_.RunStage(name, context));
  }
  return std::move(context.result);
}

HealthSnapshot SemiTriPipeline::Health() const {
  HealthSnapshot snapshot;
  for (const std::string& name : graph_.ExecutionOrder()) {
    StageHealth health;
    health.stage = name;
    if (profiler_ != nullptr && graph_.Find(name)->profiled()) {
      health.latency = profiler_->Summarize(name);
    }
    snapshot.stages.push_back(std::move(health));
  }
  return snapshot;
}

common::Result<PipelineResult> SemiTriPipeline::ReannotateLayer(
    PipelineResult result, Layer layer) const {
  const char* stage_name = nullptr;
  switch (layer) {
    case Layer::kRegion:
      stage_name = kStageLanduseJoin;
      break;
    case Layer::kLine:
      stage_name = kStageMapMatch;
      break;
    case Layer::kPoint:
      stage_name = kStagePointAnnotation;
      break;
  }
  if (graph_.Find(stage_name) == nullptr) {
    return common::Status::FailedPrecondition(
        std::string("no ") + LayerName(layer) +
        " annotation layer in this pipeline (semantic source not supplied)");
  }
  AnnotationContext context;
  context.result = std::move(result);
  context.store = store_;
  context.profiler = profiler_;
  SEMITRI_RETURN_IF_ERROR(graph_.RunStage(stage_name, context));
  // Write the recomputed layer through to the store the same way a full
  // run would: line results under the profiled store_match_result stage,
  // region/point in the unprofiled write-back tail (but only this layer —
  // the others on `result` are untouched).
  if (layer == Layer::kLine) {
    if (graph_.Find(kStageStoreMatch) != nullptr) {
      SEMITRI_RETURN_IF_ERROR(graph_.RunStage(kStageStoreMatch, context));
    }
  } else if (store_ != nullptr && context.result.layer(layer).has_value()) {
    SEMITRI_RETURN_IF_ERROR(
        store_->PutInterpretation(*context.result.layer(layer)));
  }
  return std::move(context.result);
}

}  // namespace semitri::core
