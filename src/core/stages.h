#ifndef SEMITRI_CORE_STAGES_H_
#define SEMITRI_CORE_STAGES_H_

// The default annotation stages of the SeMiTri pipeline — one node per
// box of paper Fig. 2, named after the Fig. 17 latency stages where the
// paper profiles them:
//
//   compute_episode       clean + stop/move segmentation
//   store_episode         raw trace + episodes into the store
//   landuse_join          Semantic Region Annotation Layer
//   map_match             Semantic Line Annotation Layer
//   store_match_result    line interpretation into the store
//   point_annotation      Semantic Point Annotation Layer
//   store_interpretation  region/point interpretations into the store
//                         (unprofiled write-back tail)
//
// Every stage holds only const pointers to components owned by the
// pipeline (or the caller) and is safe to run concurrently with
// distinct contexts.
//
// Incremental runs (AnnotationContext::store_watermark /
// annotated_episodes, set by stream::AnnotationSession): the region and
// line stages annotate only episodes past annotated_episodes and append
// to the layer already on the result; the point stage always recomputes
// its layer (Viterbi over every stop) and lowers its watermark to the
// rows that did not change; the store stages log append records for the
// rows past each table's watermark instead of full puts. Without a
// watermark every store stage writes full puts, exactly as offline.

#include "core/stage.h"
#include "poi/point_annotator.h"
#include "region/region_annotator.h"
#include "road/line_annotator.h"
#include "store/semantic_trajectory_store.h"
#include "traj/preprocess.h"
#include "traj/segmentation.h"

namespace semitri::core {

// Fig. 17 stage names.
inline constexpr char kStageComputeEpisode[] = "compute_episode";
inline constexpr char kStageStoreEpisode[] = "store_episode";
inline constexpr char kStageMapMatch[] = "map_match";
inline constexpr char kStageStoreMatch[] = "store_match_result";
inline constexpr char kStageLanduseJoin[] = "landuse_join";
inline constexpr char kStagePointAnnotation[] = "point_annotation";
// Write-back tail (not a Fig. 17 stage; unprofiled).
inline constexpr char kStageStoreInterpretation[] = "store_interpretation";

// Trajectory Computation Layer: cleans context.raw and segments it into
// stop/move episodes.
class ComputeEpisodeStage final : public AnnotationStage {
 public:
  ComputeEpisodeStage(const traj::Preprocessor* preprocessor,
                      const traj::StopMoveSegmenter* segmenter)
      : AnnotationStage(kStageComputeEpisode, {}),
        preprocessor_(preprocessor),
        segmenter_(segmenter) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;

 private:
  const traj::Preprocessor* preprocessor_;
  const traj::StopMoveSegmenter* segmenter_;
};

// Persists the cleaned trace and its episodes (no-op without a store).
class StoreEpisodeStage final : public AnnotationStage {
 public:
  StoreEpisodeStage() : AnnotationStage(kStageStoreEpisode,
                                        {kStageComputeEpisode}) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;
};

// Semantic Region Annotation Layer (landuse join, Algorithm 1).
class RegionAnnotationStage final : public AnnotationStage {
 public:
  explicit RegionAnnotationStage(const region::RegionAnnotator* annotator)
      : AnnotationStage(kStageLanduseJoin, {kStageComputeEpisode}),
        annotator_(annotator) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;

 private:
  const region::RegionAnnotator* annotator_;
};

// Semantic Line Annotation Layer (global map matching, Algorithm 2).
class LineAnnotationStage final : public AnnotationStage {
 public:
  explicit LineAnnotationStage(const road::LineAnnotator* annotator)
      : AnnotationStage(kStageMapMatch, {kStageComputeEpisode}),
        annotator_(annotator) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;

 private:
  const road::LineAnnotator* annotator_;
};

// Persists the line interpretation (no-op without a store or line layer).
class StoreMatchStage final : public AnnotationStage {
 public:
  StoreMatchStage() : AnnotationStage(kStageStoreMatch, {kStageMapMatch}) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;
};

// Semantic Point Annotation Layer (HMM stop annotation, Algorithm 3).
class PointAnnotationStage final : public AnnotationStage {
 public:
  explicit PointAnnotationStage(const poi::PointAnnotator* annotator)
      : AnnotationStage(kStagePointAnnotation, {kStageComputeEpisode}),
        annotator_(annotator) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;

 private:
  const poi::PointAnnotator* annotator_;
};

// Persists the region and point interpretations produced by earlier
// stages (no-op without a store). Dependencies are passed in because the
// set of registered annotation stages varies with the available sources.
class StoreInterpretationStage final : public AnnotationStage {
 public:
  explicit StoreInterpretationStage(std::vector<std::string> dependencies)
      : AnnotationStage(kStageStoreInterpretation, std::move(dependencies),
                        /*profiled=*/false) {}

  [[nodiscard]] common::Status Run(AnnotationContext& context) const override;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_STAGES_H_
