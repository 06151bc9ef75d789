#include "poi/point_annotator.h"

#include "common/strings.h"

namespace semitri::poi {

// semitri-lint: allow(hot-path-alloc) — model-construction API: the
// nested shape is the HmmModel::transition contract, built once.
std::vector<std::vector<double>> Fig6TransitionMatrix() {
  return {{0.80, 0.05, 0.05, 0.05, 0.05},
          {0.05, 0.80, 0.05, 0.05, 0.05},
          {0.05, 0.05, 0.80, 0.05, 0.05},
          {0.05, 0.05, 0.05, 0.80, 0.05},
          {0.15, 0.15, 0.15, 0.15, 0.40}};
}

PointAnnotator::PointAnnotator(const PoiSet* pois,
                               PointAnnotatorConfig config)
    : pois_(pois),
      config_(std::move(config)),
      observation_model_(pois, config_.observation) {
  model_.initial = pois_->CategoryPriors();
  if (!config_.transition.empty()) {
    model_.transition = config_.transition;
  } else if (pois_->num_categories() == kNumMilanCategories &&
             config_.default_self_transition == 0.8) {
    // The paper's own default for the Milan category space.
    model_.transition = Fig6TransitionMatrix();
  } else {
    model_.transition = hmm::MakeDefaultTransition(
        pois_->num_categories(), config_.default_self_transition);
  }
}

void PointAnnotator::BuildEmissions(const std::vector<core::Episode>& episodes,
                                    hmm::EmissionMatrix* out) const {
  out->Reset(pois_->num_categories());
  for (const core::Episode& ep : episodes) {
    if (ep.kind != core::EpisodeKind::kStop) continue;
    observation_model_.EmissionsAtInto(ep.center, out->AppendRow());
  }
}

common::Result<std::vector<int>> PointAnnotator::InferStopCategories(
    const std::vector<core::Episode>& episodes, PointScratch* scratch) const {
  PointScratch local;
  PointScratch& s = scratch != nullptr ? *scratch : local;
  s.arena.Reset();
  BuildEmissions(episodes, &s.emissions);
  if (s.emissions.rows() == 0) return std::vector<int>{};
  common::Result<hmm::ViterbiResult> decoded =
      hmm::Viterbi(model_, s.emissions, &s.arena);
  if (!decoded.ok()) return decoded.status();
  std::vector<int> categories;
  categories.reserve(decoded->states.size());
  for (size_t state : decoded->states) {
    categories.push_back(static_cast<int>(state));
  }
  return categories;
}

common::Result<core::StructuredSemanticTrajectory> PointAnnotator::Annotate(
    const core::RawTrajectory& trajectory,
    const std::vector<core::Episode>& episodes, PointScratch* scratch) const {
  PointScratch local;
  PointScratch& s = scratch != nullptr ? *scratch : local;

  // One emission build feeds both the Viterbi decode and the posterior
  // confidence pass (the paper's "probabilistic estimates of the purpose
  // behind that stop").
  common::Result<std::vector<int>> categories =
      InferStopCategories(episodes, &s);
  if (!categories.ok()) return categories.status();
  hmm::EmissionMatrix posterior;
  if (s.emissions.rows() > 0) {
    common::Result<hmm::EmissionMatrix> decoded =
        hmm::PosteriorDecode(model_, s.emissions);
    if (!decoded.ok()) return decoded.status();
    posterior = std::move(*decoded);
  }

  core::StructuredSemanticTrajectory out;
  out.trajectory_id = trajectory.id;
  out.object_id = trajectory.object_id;
  out.interpretation = "point";

  size_t stop_index = 0;
  for (size_t e = 0; e < episodes.size(); ++e) {
    const core::Episode& episode = episodes[e];
    if (episode.kind != core::EpisodeKind::kStop) continue;
    int category = (*categories)[stop_index++];

    core::SemanticEpisode ep;
    ep.kind = core::EpisodeKind::kStop;
    ep.time_in = episode.time_in;
    ep.time_out = episode.time_out;
    ep.source_episode = e;
    ep.AddAnnotation("poi_category",
                     pois_->category_names()[static_cast<size_t>(category)]);
    ep.AddAnnotation("poi_category_id", common::StrFormat("%d", category));
    if (stop_index - 1 < posterior.rows()) {
      ep.AddAnnotation(
          "poi_category_confidence",
          common::StrFormat(
              "%.3f",
              posterior.At(stop_index - 1, static_cast<size_t>(category))));
    }

    ep.place = {core::PlaceKind::kPoint, core::kInvalidPlaceId};
    if (config_.place_link_radius_meters > 0.0) {
      core::PlaceId nearest = pois_->NearestOfCategory(
          episode.center, category, config_.place_link_radius_meters);
      if (nearest != core::kInvalidPlaceId &&
          pois_->Get(nearest).position.DistanceTo(episode.center) <=
              config_.place_link_radius_meters) {
        ep.place.id = nearest;
        if (!pois_->Get(nearest).name.empty()) {
          ep.AddAnnotation("poi_name", pois_->Get(nearest).name);
        }
      }
    }
    out.episodes.push_back(std::move(ep));
  }
  return out;
}

common::Result<hmm::BaumWelchResult> PointAnnotator::FitTransitions(
    const std::vector<std::vector<core::Episode>>& episode_sequences,
    const hmm::BaumWelchOptions& options) {
  std::vector<hmm::EmissionMatrix> sequences;
  for (const std::vector<core::Episode>& episodes : episode_sequences) {
    hmm::EmissionMatrix emissions;
    BuildEmissions(episodes, &emissions);
    if (emissions.rows() > 0) sequences.push_back(std::move(emissions));
  }
  if (sequences.empty()) {
    return common::Status::InvalidArgument(
        "no stop episodes to learn from");
  }
  common::Result<hmm::BaumWelchResult> fitted =
      hmm::BaumWelch(model_, sequences, options);
  if (!fitted.ok()) return fitted.status();
  model_ = fitted->model;
  return fitted;
}

std::vector<int> NearestPoiAnnotator::InferStopCategories(
    const std::vector<core::Episode>& episodes) const {
  std::vector<int> out;
  for (const core::Episode& ep : episodes) {
    if (ep.kind != core::EpisodeKind::kStop) continue;
    core::PlaceId nearest = pois_->Nearest(ep.center);
    out.push_back(nearest == core::kInvalidPlaceId
                      ? 0
                      : pois_->Get(nearest).category);
  }
  return out;
}

}  // namespace semitri::poi
