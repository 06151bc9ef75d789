#include "region/region_annotator.h"

#include <array>

namespace semitri::region {

namespace {

// Merge key for Algorithm 1 tuple merging: the category id, with -1 for
// uncovered points.
int64_t MergeKeyOf(const RegionSet& regions, core::PlaceId id) {
  if (id == core::kInvalidPlaceId) return -1;
  return static_cast<int64_t>(regions.Get(id).category);
}

}  // namespace

core::PlaceId RegionAnnotator::BestRegionFor(const geo::Point& p) const {
  std::vector<core::PlaceId> hits = regions_->FindContaining(p);
  if (hits.empty()) return core::kInvalidPlaceId;
  for (core::PlaceId id : hits) {
    if (!regions_->Get(id).name.empty()) return id;
  }
  return hits.front();
}

std::vector<core::PlaceId> RegionAnnotator::ClassifyPoints(
    const core::RawTrajectory& trajectory) const {
  std::vector<core::PlaceId> out;
  out.reserve(trajectory.points.size());
  for (const core::GpsPoint& p : trajectory.points) {
    out.push_back(BestRegionFor(p.position));
  }
  return out;
}

void RegionAnnotator::AttachRegionAnnotations(
    core::PlaceId region_id, core::SemanticEpisode* episode) const {
  episode->place = {core::PlaceKind::kRegion, region_id};
  if (region_id == core::kInvalidPlaceId) return;
  const SemanticRegion& r = regions_->Get(region_id);
  episode->AddAnnotation("landuse", LanduseCategoryCode(r.category));
  episode->AddAnnotation("landuse_name", LanduseCategoryName(r.category));
  if (!r.name.empty()) episode->AddAnnotation("region_name", r.name);
}

core::StructuredSemanticTrajectory RegionAnnotator::AnnotateTrajectory(
    const core::RawTrajectory& trajectory) const {
  core::StructuredSemanticTrajectory out;
  out.trajectory_id = trajectory.id;
  out.object_id = trajectory.object_id;
  out.interpretation = "region";
  if (trajectory.points.empty()) return out;

  // Per-point spatial join (the R*-tree bulk queries).
  std::vector<core::PlaceId> point_regions = ClassifyPoints(trajectory);

  // Group continuous points with the same merge key into tuples
  // (Algorithm 1 lines 6–11).
  size_t group_start = 0;
  int64_t group_key = MergeKeyOf(*regions_, point_regions[0]);
  auto emit = [&](size_t begin, size_t end) {
    core::SemanticEpisode ep;
    ep.time_in = trajectory.points[begin].time;
    ep.time_out = trajectory.points[end - 1].time;
    AttachRegionAnnotations(point_regions[begin], &ep);
    out.episodes.push_back(std::move(ep));
  };
  for (size_t i = 1; i < trajectory.points.size(); ++i) {
    int64_t key = MergeKeyOf(*regions_, point_regions[i]);
    if (key != group_key) {
      emit(group_start, i);
      group_start = i;
      group_key = key;
    }
  }
  emit(group_start, trajectory.points.size());
  return out;
}

core::StructuredSemanticTrajectory RegionAnnotator::AnnotateEpisodes(
    const core::RawTrajectory& trajectory,
    const std::vector<core::Episode>& episodes) const {
  core::StructuredSemanticTrajectory out;
  out.trajectory_id = trajectory.id;
  out.object_id = trajectory.object_id;
  out.interpretation = "region";
  AnnotateEpisodesFrom(trajectory, episodes, /*first=*/0, &out);
  return out;
}

void RegionAnnotator::AnnotateEpisodesFrom(
    const core::RawTrajectory& trajectory,
    const std::vector<core::Episode>& episodes, size_t first,
    core::StructuredSemanticTrajectory* out) const {
  for (size_t e = first; e < episodes.size(); ++e) {
    const core::Episode& episode = episodes[e];
    core::SemanticEpisode ep;
    ep.kind = episode.kind;
    ep.time_in = episode.time_in;
    ep.time_out = episode.time_out;
    ep.source_episode = e;

    core::PlaceId chosen = core::kInvalidPlaceId;
    if (episode.kind == core::EpisodeKind::kStop ||
        episode.kind == core::EpisodeKind::kBegin ||
        episode.kind == core::EpisodeKind::kEnd) {
      // Stops: spatial subsumption of the episode center (§4.1: "for stop
      // episodes, we found spatial subsumption as the most used
      // predicate" — using the stop center).
      chosen = BestRegionFor(episode.center);
    } else {
      // Moves: join the bounding rectangle, then pick the per-point
      // majority region among intersecting candidates.
      std::vector<core::PlaceId> candidates =
          regions_->FindIntersecting(episode.bounds);
      if (!candidates.empty()) {
        std::vector<size_t> votes(candidates.size(), 0);
        for (size_t i = episode.begin; i < episode.end; ++i) {
          const geo::Point& p = trajectory.points[i].position;
          for (size_t c = 0; c < candidates.size(); ++c) {
            if (regions_->Get(candidates[c]).Contains(p)) {
              ++votes[c];
              break;
            }
          }
        }
        size_t best = 0;
        for (size_t c = 1; c < candidates.size(); ++c) {
          if (votes[c] > votes[best]) best = c;
        }
        if (votes[best] > 0) chosen = candidates[best];
      }
    }
    AttachRegionAnnotations(chosen, &ep);
    out->episodes.push_back(std::move(ep));
  }
}

}  // namespace semitri::region
