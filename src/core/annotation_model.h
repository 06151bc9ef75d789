#ifndef SEMITRI_CORE_ANNOTATION_MODEL_H_
#define SEMITRI_CORE_ANNOTATION_MODEL_H_

// The immutable half of a SeMiTri pipeline: the PipelineConfig and what
// is built from it and the world before any trajectory arrives — the
// trajectory-computation steps and the region, line and point
// annotators, the last with its discretized POI observation grid (B,
// §4.3 Lemma 1) and HMM parameters. None of it depends on a trajectory,
// a store or a shard, so a model is built once and shared read-only
// (std::shared_ptr<const AnnotationModel>) by every pipeline over the
// same world and config: all shards of a ShardCluster, and every
// restart, failover and added shard. The annotators' queries are const
// and keep no scratch state, so pipelines on many threads may run one
// model at once. The model is logically immutable: every query returns
// what it would have returned at construction. The one write behind a
// query is the observation grid's, which computes a cell the first time
// any thread reads it and publishes it once, lock-free
// (poi/observation_model.h); building a model therefore does not pay
// for the cells no stop ever lands in.

#include <memory>

#include "poi/point_annotator.h"
#include "region/region_annotator.h"
#include "road/line_annotator.h"
#include "traj/identification.h"
#include "traj/preprocess.h"
#include "traj/segmentation.h"

namespace semitri::core {

struct PipelineConfig {
  traj::PreprocessConfig preprocess;
  traj::IdentificationConfig identification;
  traj::SegmentationConfig segmentation;
  road::LineAnnotatorConfig line;
  poi::PointAnnotatorConfig point;
};

class AnnotationModel {
 public:
  // Any of `regions` / `roads` / `pois` may be null, and an empty
  // `pois` counts as missing: the corresponding layer is left out (the
  // paper notes SeMiTri produces partial annotations when 3rd-party
  // sources are missing). The world must outlive the model.
  [[nodiscard]] static std::shared_ptr<const AnnotationModel> Build(
      const region::RegionSet* regions, const road::RoadNetwork* roads,
      const poi::PoiSet* pois, PipelineConfig config = {});

  const PipelineConfig& config() const { return config_; }
  const traj::Preprocessor& preprocessor() const { return preprocessor_; }
  const traj::TrajectoryIdentifier& identifier() const { return identifier_; }
  const traj::StopMoveSegmenter& segmenter() const { return segmenter_; }
  // The annotation layers; null when the layer's source is missing.
  const region::RegionAnnotator* region_annotator() const {
    return region_annotator_.get();
  }
  const road::LineAnnotator* line_annotator() const {
    return line_annotator_.get();
  }
  const poi::PointAnnotator* point_annotator() const {
    return point_annotator_.get();
  }

 private:
  AnnotationModel(const region::RegionSet* regions,
                  const road::RoadNetwork* roads, const poi::PoiSet* pois,
                  PipelineConfig config);

  PipelineConfig config_;
  traj::Preprocessor preprocessor_;
  traj::TrajectoryIdentifier identifier_;
  traj::StopMoveSegmenter segmenter_;
  std::unique_ptr<region::RegionAnnotator> region_annotator_;
  std::unique_ptr<road::LineAnnotator> line_annotator_;
  std::unique_ptr<poi::PointAnnotator> point_annotator_;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_ANNOTATION_MODEL_H_
