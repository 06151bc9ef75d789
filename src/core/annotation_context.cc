#include "core/annotation_context.h"

#include "common/check.h"
#include "core/annotation_scratch.h"

namespace semitri::core {

const traj::PointBatch& AnnotationContext::PointsBatch() {
  traj::PointBatch& batch = scratch != nullptr ? scratch->batch
                                               : fallback_batch_;
  if (!batch_built_) {
    if (batch_points > 0 && scratch != nullptr &&
        batch.size() == batch_points) {
      batch.Extend(result.cleaned);
    } else {
      batch.BuildFrom(result.cleaned);
    }
    batch_built_ = true;
  }
  return batch;
}

size_t& StoreWatermark::layer(Layer which) {
  switch (which) {
    case Layer::kRegion: return region;
    case Layer::kLine: return line;
    case Layer::kPoint: return point;
  }
  SEMITRI_CHECK(false) << "invalid layer";
  return region;
}

size_t PipelineResult::NumStops() const {
  size_t n = 0;
  for (const Episode& e : episodes) {
    if (e.kind == EpisodeKind::kStop) ++n;
  }
  return n;
}

size_t PipelineResult::NumMoves() const {
  size_t n = 0;
  for (const Episode& e : episodes) {
    if (e.kind == EpisodeKind::kMove) ++n;
  }
  return n;
}

std::optional<StructuredSemanticTrajectory>& PipelineResult::layer(
    Layer which) {
  switch (which) {
    case Layer::kRegion: return region_layer;
    case Layer::kLine: return line_layer;
    case Layer::kPoint: return point_layer;
  }
  SEMITRI_CHECK(false) << "invalid layer";
  return region_layer;
}

const std::optional<StructuredSemanticTrajectory>& PipelineResult::layer(
    Layer which) const {
  return const_cast<PipelineResult*>(this)->layer(which);
}

}  // namespace semitri::core
