#ifndef SEMITRI_REGION_REGION_ANNOTATOR_H_
#define SEMITRI_REGION_REGION_ANNOTATOR_H_

// Semantic Region Annotation Layer — paper §4.1, Algorithm 1.
//
// Computes the topological correlation (spatial join) between a
// trajectory and the semantic regions, groups continuous GPS points that
// fall into the same region, and merges consecutive tuples with the same
// region type into single semantic episodes. Works both per GPS point
// (Algorithm 1 as printed) and per stop/move episode (center containment
// for stops, bounding-rectangle join + per-point majority for moves).

#include <vector>

#include "core/types.h"
#include "region/region_set.h"

namespace semitri::region {

class RegionAnnotator {
 public:
  // `regions` must outlive the annotator.
  explicit RegionAnnotator(const RegionSet* regions) : regions_(regions) {}

  // The most relevant region containing p (kInvalidPlaceId if none): a
  // named free-form region (campus, park) over the landuse cell under
  // it.
  core::PlaceId BestRegionFor(const geo::Point& p) const;

  // Region of every GPS point (kInvalidPlaceId where uncovered).
  std::vector<core::PlaceId> ClassifyPoints(
      const core::RawTrajectory& trajectory) const;

  // Algorithm 1: per-point spatial join + tuple merging. Consecutive
  // tuples merge when "current regtype = previous regtype" (line 10),
  // i.e. by landuse category. The resulting interpretation is named
  // "region".
  core::StructuredSemanticTrajectory AnnotateTrajectory(
      const core::RawTrajectory& trajectory) const;

  // Episode-level variant, the pipeline's region layer: annotates each
  // stop/move episode with its dominant region; stop episodes use
  // center containment first.
  core::StructuredSemanticTrajectory AnnotateEpisodes(
      const core::RawTrajectory& trajectory,
      const std::vector<core::Episode>& episodes) const;

  // Appends the semantic episodes of episodes[first, size) to
  // out->episodes — the incremental form of AnnotateEpisodes, which is
  // this with first = 0 on an empty `out`. Each episode's semantic
  // episode depends only on that episode and its points, so a growing
  // trajectory can be annotated episode by episode.
  void AnnotateEpisodesFrom(const core::RawTrajectory& trajectory,
                            const std::vector<core::Episode>& episodes,
                            size_t first,
                            core::StructuredSemanticTrajectory* out) const;

 private:
  void AttachRegionAnnotations(core::PlaceId region_id,
                               core::SemanticEpisode* episode) const;

  const RegionSet* regions_;
};

}  // namespace semitri::region

#endif  // SEMITRI_REGION_REGION_ANNOTATOR_H_
