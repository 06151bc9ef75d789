#ifndef SEMITRI_CORE_STAGES_H_
#define SEMITRI_CORE_STAGES_H_

// Names of the SeMiTri pipeline's stages — one per box of paper Fig. 2,
// named after the Fig. 17 latency stages where the paper profiles them.
// SemiTriPipeline runs them in this order; each name is also the
// latency-profiler series and, prefixed with "stage:", the stage's
// fault site.
//
//   compute_episode       clean + stop/move segmentation
//   store_episode         raw trace + episodes into the store
//   landuse_join          Semantic Region Annotation Layer
//   map_match             Semantic Line Annotation Layer
//   store_match_result    line interpretation into the store
//   point_annotation      Semantic Point Annotation Layer
//   store_interpretation  region/point interpretations into the store
//                         (unprofiled write-back tail)

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

}  // namespace semitri::core

#endif  // SEMITRI_CORE_STAGES_H_
