#include "core/stages.h"

#include <algorithm>

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

common::Status WriteLayer(AnnotationContext& context, Layer which) {
  const std::optional<StructuredSemanticTrajectory>& layer =
      context.result.layer(which);
  if (!layer.has_value()) return common::Status::OK();
  StoreWatermark* mark = context.store_watermark;
  return WriteRows(
      mark != nullptr ? &mark->layer(which) : nullptr, layer->episodes.size(),
      [&] { return context.store->PutInterpretation(*layer); },
      [&](size_t start) {
        return context.store->AppendInterpretation(*layer, start);
      });
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

}  // namespace

common::Status ComputeEpisodeStage::Run(AnnotationContext& context) const {
  if (context.raw == nullptr) {
    return common::Status::InvalidArgument(
        "compute_episode needs a raw trajectory on the context");
  }
  context.result.cleaned = preprocessor_->Clean(*context.raw);
  context.result.episodes = segmenter_->Segment(context.result.cleaned);
  return common::Status::OK();
}

common::Status StoreEpisodeStage::Run(AnnotationContext& context) const {
  if (context.store == nullptr) return common::Status::OK();
  StoreWatermark* mark = context.store_watermark;
  const RawTrajectory& cleaned = context.result.cleaned;
  const std::vector<Episode>& episodes = context.result.episodes;
  SEMITRI_RETURN_IF_ERROR(WriteRows(
      mark != nullptr ? &mark->raw_points : nullptr, cleaned.points.size(),
      [&] { return context.store->PutRawTrajectory(cleaned); },
      [&](size_t start) {
        return context.store->AppendRawPoints(cleaned, start);
      }));
  return WriteRows(
      mark != nullptr ? &mark->episodes : nullptr, episodes.size(),
      [&] { return context.store->PutEpisodes(cleaned.id, episodes); },
      [&](size_t start) {
        return context.store->AppendEpisodes(cleaned.id, episodes, start);
      });
}

common::Status RegionAnnotationStage::Run(AnnotationContext& context) const {
  std::optional<StructuredSemanticTrajectory>& current =
      context.result.region_layer;
  const size_t first = context.annotated_episodes;
  if (first > 0 && first <= context.result.episodes.size() &&
      current.has_value() && annotator_->per_episode()) {
    annotator_->AnnotateEpisodesFrom(context.result.cleaned,
                                     context.result.episodes, first,
                                     &*current);
    return common::Status::OK();
  }
  StructuredSemanticTrajectory layer =
      annotator_->Annotate(context.result.cleaned, context.result.episodes);
  KeepSharedRows(context, Layer::kRegion, layer);
  current = std::move(layer);
  return common::Status::OK();
}

common::Status LineAnnotationStage::Run(AnnotationContext& context) const {
  std::optional<StructuredSemanticTrajectory>& current =
      context.result.line_layer;
  road::LineScratch* scratch =
      context.scratch != nullptr ? &context.scratch->line : nullptr;
  const size_t first = context.annotated_episodes;
  if (first > 0 && first <= context.result.episodes.size() &&
      current.has_value()) {
    annotator_->AnnotateFrom(context.PointsBatch(), context.result.episodes,
                             first, scratch, &current->episodes);
    return common::Status::OK();
  }
  StructuredSemanticTrajectory layer = annotator_->Annotate(
      context.PointsBatch(), context.result.episodes, scratch);
  KeepSharedRows(context, Layer::kLine, layer);
  current = std::move(layer);
  return common::Status::OK();
}

common::Status StoreMatchStage::Run(AnnotationContext& context) const {
  if (context.store == nullptr) return common::Status::OK();
  return WriteLayer(context, Layer::kLine);
}

common::Status PointAnnotationStage::Run(AnnotationContext& context) const {
  common::Result<StructuredSemanticTrajectory> layer = annotator_->Annotate(
      context.result.cleaned, context.result.episodes,
      context.scratch != nullptr ? &context.scratch->point : nullptr);
  if (!layer.ok()) return layer.status();
  KeepSharedRows(context, Layer::kPoint, *layer);
  context.result.point_layer = std::move(*layer);
  return common::Status::OK();
}

common::Status StoreInterpretationStage::Run(
    AnnotationContext& context) const {
  if (context.store == nullptr) return common::Status::OK();
  SEMITRI_RETURN_IF_ERROR(WriteLayer(context, Layer::kRegion));
  return WriteLayer(context, Layer::kPoint);
}

}  // namespace semitri::core
