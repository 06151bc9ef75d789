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

struct RegionAnnotatorConfig {
  // Algorithm 1 line 10 merges consecutive tuples when "current regtype =
  // previous regtype". kByCategory reproduces that; kByRegion merges only
  // identical regions (finer interpretation, less compression).
  enum class MergePolicy { kByCategory, kByRegion };
  MergePolicy merge_policy = MergePolicy::kByCategory;
  // When a point lies in both a named free-form region (campus, park) and
  // an underlying landuse cell, prefer the named region.
  bool prefer_named_regions = true;
  // Layer granularity: per-stop/move-episode join (the default) or
  // per-GPS-point Algorithm 1 as printed.
  enum class Granularity { kPerEpisode, kPerPoint };
  Granularity granularity = Granularity::kPerEpisode;
};

class RegionAnnotator {
 public:
  // `regions` must outlive the annotator.
  explicit RegionAnnotator(const RegionSet* regions,
                           RegionAnnotatorConfig config = {})
      : regions_(regions), config_(config) {}

  // The most relevant region containing p (kInvalidPlaceId if none).
  core::PlaceId BestRegionFor(const geo::Point& p) const;

  // Region of every GPS point (kInvalidPlaceId where uncovered).
  std::vector<core::PlaceId> ClassifyPoints(
      const core::RawTrajectory& trajectory) const;

  // Algorithm 1: per-point spatial join + tuple merging. The resulting
  // interpretation is named "region".
  core::StructuredSemanticTrajectory AnnotateTrajectory(
      const core::RawTrajectory& trajectory) const;

  // Episode-level variant: annotates each stop/move episode with its
  // dominant region; stop episodes use center containment first.
  core::StructuredSemanticTrajectory AnnotateEpisodes(
      const core::RawTrajectory& trajectory,
      const std::vector<core::Episode>& episodes) const;

  // Dispatches on the configured granularity: AnnotateTrajectory for
  // kPerPoint, AnnotateEpisodes for kPerEpisode.
  core::StructuredSemanticTrajectory Annotate(
      const core::RawTrajectory& trajectory,
      const std::vector<core::Episode>& episodes) const {
    return per_episode() ? AnnotateEpisodes(trajectory, episodes)
                         : AnnotateTrajectory(trajectory);
  }

  // True for kPerEpisode granularity, where each episode's semantic
  // episode depends only on that episode and its points — so a growing
  // trajectory can be annotated episode by episode (AnnotateEpisodesFrom).
  bool per_episode() const {
    return config_.granularity ==
           RegionAnnotatorConfig::Granularity::kPerEpisode;
  }

  // Appends the semantic episodes of episodes[first, size) to
  // out->episodes — the incremental form of AnnotateEpisodes, which is
  // this with first = 0 on an empty `out`.
  void AnnotateEpisodesFrom(const core::RawTrajectory& trajectory,
                            const std::vector<core::Episode>& episodes,
                            size_t first,
                            core::StructuredSemanticTrajectory* out) const;

 private:
  void AttachRegionAnnotations(core::PlaceId region_id,
                               core::SemanticEpisode* episode) const;

  const RegionSet* regions_;
  RegionAnnotatorConfig config_;
};

}  // namespace semitri::region

#endif  // SEMITRI_REGION_REGION_ANNOTATOR_H_
