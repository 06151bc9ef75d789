#include "road/line_annotator.h"

#include "common/strings.h"

namespace semitri::road {

std::vector<core::SemanticEpisode> LineAnnotator::AnnotateMove(
    const traj::PointView& pts, size_t source_episode) const {
  std::vector<core::SemanticEpisode> out;
  AnnotateMove(pts, source_episode, /*scratch=*/nullptr, &out);
  return out;
}

void LineAnnotator::AnnotateMove(
    const traj::PointView& pts, size_t source_episode, LineScratch* scratch,
    std::vector<core::SemanticEpisode>* out) const {
  if (pts.size == 0) return;

  LineScratch local;
  LineScratch& s = scratch != nullptr ? *scratch : local;

  matcher_.MatchPoints(pts, &s.match, &s.matches);

  // Build runs of consecutive points matched to the same segment
  // (Algorithm 2's preSeg grouping). Unmatched points form their own
  // runs with an invalid place.
  s.runs.clear();
  for (size_t i = 0; i < s.matches.size();) {
    size_t j = i + 1;
    while (j < s.matches.size() &&
           s.matches[j].segment == s.matches[i].segment) {
      ++j;
    }
    s.runs.push_back({s.matches[i].segment, i, j});
    i = j;
  }
  // Absorb sub-minimum runs into the longer neighbor (match flicker at
  // crossings produces 1-point runs).
  if (config_.min_run_points > 1 && s.runs.size() > 1) {
    std::vector<MatchRun>& filtered = s.runs_tmp;
    filtered.clear();
    for (const MatchRun& r : s.runs) {
      if (r.end - r.begin >= config_.min_run_points) {
        filtered.push_back(r);
      } else if (!filtered.empty()) {
        filtered.back().end = r.end;
      } else {
        filtered.push_back(r);
      }
    }
    // Re-merge neighbors that became equal after absorption, back into
    // the (now free) runs buffer.
    s.runs.clear();
    for (const MatchRun& r : filtered) {
      if (!s.runs.empty() && s.runs.back().segment == r.segment) {
        s.runs.back().end = r.end;
      } else {
        s.runs.push_back(r);
      }
    }
  }

  for (const MatchRun& r : s.runs) {
    core::SemanticEpisode ep;
    ep.kind = core::EpisodeKind::kMove;
    ep.time_in = pts.ts[r.begin];
    ep.time_out = pts.ts[r.end - 1];
    ep.source_episode = source_episode;
    ep.place = {core::PlaceKind::kLine, r.segment};
    if (r.segment != core::kInvalidPlaceId) {
      const RoadSegment& seg = network_->segment(r.segment);
      TransportMode mode = classifier_.Classify(
          pts.Slice(r.begin, r.end - r.begin), seg.type, &s.motion);
      ep.AddAnnotation("transport_mode", TransportModeName(mode));
      ep.AddAnnotation("road_type", RoadTypeName(seg.type));
      if (!seg.name.empty()) ep.AddAnnotation("road_name", seg.name);
      double mean_score = 0.0;
      for (size_t i = r.begin; i < r.end; ++i) mean_score += s.matches[i].score;
      mean_score /= static_cast<double>(r.end - r.begin);
      ep.AddAnnotation("match_score",
                       common::StrFormat("%.3f", mean_score));
    }
    out->push_back(std::move(ep));
  }
}

core::StructuredSemanticTrajectory LineAnnotator::Annotate(
    const traj::PointBatch& batch, const std::vector<core::Episode>& episodes,
    LineScratch* scratch) const {
  core::StructuredSemanticTrajectory out;
  out.trajectory_id = batch.id();
  out.object_id = batch.object_id();
  out.interpretation = "line";
  AnnotateFrom(batch, episodes, /*first=*/0, scratch, &out.episodes);
  return out;
}

void LineAnnotator::AnnotateFrom(
    const traj::PointBatch& batch, const std::vector<core::Episode>& episodes,
    size_t first, LineScratch* scratch,
    std::vector<core::SemanticEpisode>* out) const {
  LineScratch local;
  LineScratch& s = scratch != nullptr ? *scratch : local;
  for (size_t e = first; e < episodes.size(); ++e) {
    if (episodes[e].kind != core::EpisodeKind::kMove) continue;
    AnnotateMove(batch.View(episodes[e].begin, episodes[e].num_points()), e,
                 &s, out);
  }
}

}  // namespace semitri::road
