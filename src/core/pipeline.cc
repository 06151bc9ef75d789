#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "core/annotation_scratch.h"

namespace semitri::core {

namespace {

// Writes one table of the trajectory: the rows from the watermark on
// when one is attached (all of them while the store holds none yet),
// every row otherwise. Advances the mark on success.
template <typename Put>
common::Status WriteRows(size_t* mark, size_t rows, Put put) {
  SEMITRI_RETURN_IF_ERROR(put(mark != nullptr ? std::min(*mark, rows) : 0));
  if (mark != nullptr) *mark = rows;
  return common::Status::OK();
}

common::Status WriteLayer(store::SemanticTrajectoryStore& store,
                          AnnotationContext& context, Layer which) {
  const std::optional<StructuredSemanticTrajectory>& layer =
      context.result.layer(which);
  if (!layer.has_value()) return common::Status::OK();
  StoreWatermark* mark = context.store_watermark;
  return WriteRows(
      mark != nullptr ? &mark->layer(which) : nullptr, layer->episodes.size(),
      [&](size_t start) { return store.PutInterpretation(*layer, start); });
}

// A stage that recomputed its layer instead of appending to it keeps
// the watermark honest: the store holds the previous layer's rows, so
// only the leading rows both versions share count as written.
void KeepSharedRows(AnnotationContext& context, Layer which,
                    const StructuredSemanticTrajectory& fresh) {
  if (context.store_watermark == nullptr) return;
  size_t& mark = context.store_watermark->layer(which);
  const std::optional<StructuredSemanticTrajectory>& previous =
      context.result.layer(which);
  size_t shared = 0;
  if (previous.has_value()) {
    size_t n = std::min({mark, previous->episodes.size(),
                         fresh.episodes.size()});
    while (shared < n && previous->episodes[shared] == fresh.episodes[shared]) {
      ++shared;
    }
  }
  mark = shared;
}

// store_episode: persists the cleaned trace and its episodes.
common::Status StoreEpisodes(store::SemanticTrajectoryStore& store,
                             AnnotationContext& context) {
  StoreWatermark* mark = context.store_watermark;
  const RawTrajectory& cleaned = context.result.cleaned;
  const std::vector<Episode>& episodes = context.result.episodes;
  SEMITRI_RETURN_IF_ERROR(WriteRows(
      mark != nullptr ? &mark->raw_points : nullptr, cleaned.points.size(),
      [&](size_t start) { return store.PutRawTrajectory(cleaned, start); }));
  return WriteRows(
      mark != nullptr ? &mark->episodes : nullptr, episodes.size(),
      [&](size_t start) {
        return store.PutEpisodes(cleaned.id, episodes, start);
      });
}

// landuse_join: Semantic Region Annotation Layer (Algorithm 1).
common::Status AnnotateRegions(const region::RegionAnnotator& annotator,
                               AnnotationContext& context) {
  std::optional<StructuredSemanticTrajectory>& current =
      context.result.region_layer;
  const size_t first = context.annotated_episodes;
  if (first > 0 && first <= context.result.episodes.size() &&
      current.has_value()) {
    annotator.AnnotateEpisodesFrom(context.result.cleaned,
                                   context.result.episodes, first, &*current);
    return common::Status::OK();
  }
  StructuredSemanticTrajectory layer = annotator.AnnotateEpisodes(
      context.result.cleaned, context.result.episodes);
  KeepSharedRows(context, Layer::kRegion, layer);
  current = std::move(layer);
  return common::Status::OK();
}

// map_match: Semantic Line Annotation Layer (Algorithm 2).
common::Status AnnotateLines(const road::LineAnnotator& annotator,
                             AnnotationContext& context) {
  std::optional<StructuredSemanticTrajectory>& current =
      context.result.line_layer;
  road::LineScratch* scratch =
      context.scratch != nullptr ? &context.scratch->line : nullptr;
  const size_t first = context.annotated_episodes;
  if (first > 0 && first <= context.result.episodes.size() &&
      current.has_value()) {
    annotator.AnnotateFrom(context.PointsBatch(), context.result.episodes,
                           first, scratch, &current->episodes);
    return common::Status::OK();
  }
  StructuredSemanticTrajectory layer = annotator.Annotate(
      context.PointsBatch(), context.result.episodes, scratch);
  KeepSharedRows(context, Layer::kLine, layer);
  current = std::move(layer);
  return common::Status::OK();
}

// point_annotation: Semantic Point Annotation Layer (Algorithm 3).
common::Status AnnotatePoints(const poi::PointAnnotator& annotator,
                              AnnotationContext& context) {
  common::Result<StructuredSemanticTrajectory> layer = annotator.Annotate(
      context.result.cleaned, context.result.episodes,
      context.scratch != nullptr ? &context.scratch->point : nullptr);
  if (!layer.ok()) return layer.status();
  KeepSharedRows(context, Layer::kPoint, *layer);
  context.result.point_layer = std::move(*layer);
  return common::Status::OK();
}

}  // namespace

SemiTriPipeline::SemiTriPipeline(std::shared_ptr<const AnnotationModel> model,
                                 store::SemanticTrajectoryStore* store,
                                 analytics::LatencyProfiler* profiler)
    : model_(std::move(model)), store_(store), profiler_(profiler) {
  SEMITRI_CHECK(model_ != nullptr) << "a pipeline needs a model";
}

template <typename Body>
common::Status SemiTriPipeline::RunStage(const char* name, StageKind kind,
                                         AnnotationContext& context,
                                         Body body) const {
  // Every stage run is a fault site named "stage:<name>", so the
  // crash-recovery harness can fail any step of the pipeline without
  // bespoke hooks in each annotator.
  if (SEMITRI_FAULT_FIRE(std::string("stage:") + name) !=
      common::FaultAction::kNone) {
    return common::Status::IoError(
        std::string("injected failure in stage '") + name + "'");
  }
  std::optional<analytics::LatencyProfiler::Scope> timer;
  if (kind == StageKind::kProfiled && context.profiler != nullptr) {
    timer.emplace(context.profiler, name);
  }
  return body();
}

common::Result<PipelineResult> SemiTriPipeline::ProcessTrajectory(
    const RawTrajectory& raw) const {
  AnnotationContext context;
  context.profiler = profiler_;
  SEMITRI_RETURN_IF_ERROR(
      RunStage(kStageComputeEpisode, StageKind::kProfiled, context, [&] {
        context.result.cleaned = model_->preprocessor().Clean(raw);
        context.result.episodes =
            model_->segmenter().Segment(context.result.cleaned);
        return common::Status::OK();
      }));
  SEMITRI_RETURN_IF_ERROR(RunDownstreamStages(context));
  return std::move(context.result);
}

common::Status SemiTriPipeline::RunDownstreamStages(
    AnnotationContext& context) const {
  const region::RegionAnnotator* regions = model_->region_annotator();
  const road::LineAnnotator* lines = model_->line_annotator();
  const poi::PointAnnotator* points = model_->point_annotator();
  if (store_ != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStageStoreEpisode, StageKind::kProfiled, context, [&] {
          return StoreEpisodes(*store_, context);
        }));
  }
  if (regions != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStageLanduseJoin, StageKind::kProfiled, context, [&] {
          return AnnotateRegions(*regions, context);
        }));
  }
  if (lines != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStageMapMatch, StageKind::kProfiled, context, [&] {
          return AnnotateLines(*lines, context);
        }));
    if (store_ != nullptr) {
      SEMITRI_RETURN_IF_ERROR(
          RunStage(kStageStoreMatch, StageKind::kProfiled, context, [&] {
            return WriteLayer(*store_, context, Layer::kLine);
          }));
    }
  }
  if (points != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStagePointAnnotation, StageKind::kProfiled, context, [&] {
          return AnnotatePoints(*points, context);
        }));
  }
  if (store_ != nullptr) {
    SEMITRI_RETURN_IF_ERROR(RunStage(
        kStageStoreInterpretation, StageKind::kWriteBack, context, [&] {
          SEMITRI_RETURN_IF_ERROR(WriteLayer(*store_, context, Layer::kRegion));
          return WriteLayer(*store_, context, Layer::kPoint);
        }));
  }
  return common::Status::OK();
}

common::Result<std::vector<PipelineResult>> SemiTriPipeline::ProcessStream(
    ObjectId object_id, const std::vector<GpsPoint>& stream,
    TrajectoryId first_id) const {
  std::vector<PipelineResult> out;
  std::vector<RawTrajectory> trajectories =
      model_->identifier().Identify(object_id, stream, first_id);
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
  context.profiler = profiler_;
  SEMITRI_RETURN_IF_ERROR(RunDownstreamStages(context));
  return std::move(context.result);
}

HealthSnapshot SemiTriPipeline::Health() const {
  // compute_episode, then what RunDownstreamStages runs, in its order.
  std::vector<const char*> stages = {kStageComputeEpisode};
  if (store_ != nullptr) stages.push_back(kStageStoreEpisode);
  if (model_->region_annotator() != nullptr) {
    stages.push_back(kStageLanduseJoin);
  }
  if (model_->line_annotator() != nullptr) {
    stages.push_back(kStageMapMatch);
    if (store_ != nullptr) stages.push_back(kStageStoreMatch);
  }
  if (model_->point_annotator() != nullptr) {
    stages.push_back(kStagePointAnnotation);
  }
  if (store_ != nullptr) stages.push_back(kStageStoreInterpretation);

  HealthSnapshot snapshot;
  for (const char* name : stages) {
    StageHealth health;
    health.stage = name;
    // The unprofiled write-back tail has no samples: its digest is zero.
    if (profiler_ != nullptr) health.latency = profiler_->Summarize(name);
    snapshot.stages.push_back(std::move(health));
  }
  return snapshot;
}

}  // namespace semitri::core
