#include "core/annotation_model.h"

#include <utility>

namespace semitri::core {

AnnotationModel::AnnotationModel(const region::RegionSet* regions,
                                 const road::RoadNetwork* roads,
                                 const poi::PoiSet* pois,
                                 PipelineConfig config)
    : config_(std::move(config)),
      preprocessor_(config_.preprocess),
      identifier_(config_.identification),
      segmenter_(config_.segmentation) {
  if (regions != nullptr) {
    region_annotator_ =
        std::make_unique<region::RegionAnnotator>(regions);
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

std::shared_ptr<const AnnotationModel> AnnotationModel::Build(
    const region::RegionSet* regions, const road::RoadNetwork* roads,
    const poi::PoiSet* pois, PipelineConfig config) {
  return std::shared_ptr<const AnnotationModel>(
      new AnnotationModel(regions, roads, pois, std::move(config)));
}

}  // namespace semitri::core
