#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "core/annotation_scratch.h"

namespace semitri::core {

namespace {

// Writes one table of the trajectory: a full put when no watermark is
// attached or the store holds none of its rows yet, otherwise an append
// record for the rows from the mark on. Advances the mark on success.
template <typename Put, typename Append>
common::Status WriteRows(size_t* mark, size_t rows, Put put, Append append) {
  if (mark == nullptr || *mark == 0) {
    SEMITRI_RETURN_IF_ERROR(put());
  } else {
    SEMITRI_RETURN_IF_ERROR(append(std::min(*mark, rows)));
  }
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
      [&] { return store.PutInterpretation(*layer); },
      [&](size_t start) { return store.AppendInterpretation(*layer, start); });
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
      [&] { return store.PutRawTrajectory(cleaned); },
      [&](size_t start) { return store.AppendRawPoints(cleaned, start); }));
  return WriteRows(
      mark != nullptr ? &mark->episodes : nullptr, episodes.size(),
      [&] { return store.PutEpisodes(cleaned.id, episodes); },
      [&](size_t start) {
        return store.AppendEpisodes(cleaned.id, episodes, start);
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
}

template <typename Body>
common::Status SemiTriPipeline::RunStage(const char* name, StageKind kind,
                                         AnnotationContext& context,
                                         Body body) const {
  // Every stage run is a fault site named "stage:<name>", so the
  // crash-recovery harness can fail any step of the pipeline without
  // bespoke hooks in each annotator.
  common::Status status;
  if (SEMITRI_FAULT_FIRE(std::string("stage:") + name) !=
      common::FaultAction::kNone) {
    status = common::Status::IoError(
        std::string("injected failure in stage '") + name + "'");
  } else {
    std::optional<analytics::LatencyProfiler::Scope> timer;
    if (kind != StageKind::kWriteBack && context.profiler != nullptr) {
      timer.emplace(context.profiler, name);
    }
    status = body();
  }

  // Only failures leave a report, so a clean run allocates nothing.
  if (status.ok()) return status;
  bool skip = kind == StageKind::kLayer &&
              config_.annotation_failure.on_failure ==
                  FailurePolicy::OnFailure::kSkip;
  context.result.stage_reports[name] = StageReport{status, skip};
  // Degrade: drop this layer and let the rest of the run complete.
  if (skip) return common::Status::OK();
  return status;
}

common::Result<PipelineResult> SemiTriPipeline::ProcessTrajectory(
    const RawTrajectory& raw) const {
  AnnotationContext context;
  context.profiler = profiler_;
  SEMITRI_RETURN_IF_ERROR(
      RunStage(kStageComputeEpisode, StageKind::kStep, context, [&] {
        context.result.cleaned = preprocessor_.Clean(raw);
        context.result.episodes = segmenter_.Segment(context.result.cleaned);
        return common::Status::OK();
      }));
  SEMITRI_RETURN_IF_ERROR(RunDownstreamStages(context));
  return std::move(context.result);
}

common::Status SemiTriPipeline::RunDownstreamStages(
    AnnotationContext& context) const {
  if (store_ != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStageStoreEpisode, StageKind::kStep, context, [&] {
          return StoreEpisodes(*store_, context);
        }));
  }
  if (region_annotator_ != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStageLanduseJoin, StageKind::kLayer, context, [&] {
          return AnnotateRegions(*region_annotator_, context);
        }));
  }
  if (line_annotator_ != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStageMapMatch, StageKind::kLayer, context, [&] {
          return AnnotateLines(*line_annotator_, context);
        }));
    if (store_ != nullptr) {
      SEMITRI_RETURN_IF_ERROR(
          RunStage(kStageStoreMatch, StageKind::kStep, context, [&] {
            return WriteLayer(*store_, context, Layer::kLine);
          }));
    }
  }
  if (point_annotator_ != nullptr) {
    SEMITRI_RETURN_IF_ERROR(
        RunStage(kStagePointAnnotation, StageKind::kLayer, context, [&] {
          return AnnotatePoints(*point_annotator_, context);
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
  context.profiler = profiler_;
  SEMITRI_RETURN_IF_ERROR(RunDownstreamStages(context));
  return std::move(context.result);
}

HealthSnapshot SemiTriPipeline::Health() const {
  // compute_episode, then what RunDownstreamStages runs, in its order.
  std::vector<const char*> stages = {kStageComputeEpisode};
  if (store_ != nullptr) stages.push_back(kStageStoreEpisode);
  if (region_annotator_ != nullptr) stages.push_back(kStageLanduseJoin);
  if (line_annotator_ != nullptr) {
    stages.push_back(kStageMapMatch);
    if (store_ != nullptr) stages.push_back(kStageStoreMatch);
  }
  if (point_annotator_ != nullptr) stages.push_back(kStagePointAnnotation);
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
