#ifndef SEMITRI_POI_POINT_ANNOTATOR_H_
#define SEMITRI_POI_POINT_ANNOTATOR_H_

// Semantic Point Annotation Layer — paper §4.3, Algorithm 3.
//
// The stop sequence of a trajectory is the observation sequence of an
// HMM whose hidden states are POI categories; π comes from the category
// shares of the repository, A is either supplied (learned from history)
// or defaults to a diagonal-dominant matrix (Fig. 6), and B is the
// discretized Gaussian POI observation model (Lemma 1). Viterbi decoding
// yields the most likely category ("the purpose behind the stop") per
// stop episode.
//
// Data plane: emission probabilities are built row-by-row into a flat
// hmm::EmissionMatrix (one build shared by decoding and the posterior
// pass) and the Viterbi grid runs out of the caller's arena; both live
// in PointScratch so repeated annotation runs reuse their capacity.
//
// NearestPoiAnnotator is the traditional one-to-one baseline ([28]) used
// in the ablation bench.

#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "core/types.h"
#include "hmm/emission_matrix.h"
#include "hmm/hmm.h"
#include "poi/observation_model.h"
#include "poi/poi_set.h"

namespace semitri::poi {

struct PointAnnotatorConfig {
  ObservationModelConfig observation;
  // State-transition matrix A; defaults to Fig.6-style diagonal dominance
  // when empty.
  std::vector<std::vector<double>> transition;
  double default_self_transition = 0.8;
  // Also link each stop to the nearest POI of the decoded category
  // within this radius (0 disables the place link).
  double place_link_radius_meters = 150.0;
};

// Reusable working set of one point-annotation pass, owned by the caller
// (one per annotation run/session — see core::AnnotationScratch). The
// arena backs the Viterbi grid and is Reset (capacity retained) on every
// pass.
struct PointScratch {
  hmm::EmissionMatrix emissions;
  common::Arena arena;

  size_t capacity_bytes() const {
    return emissions.data().capacity() * sizeof(double) +
           arena.capacity_bytes();
  }
};

class PointAnnotator {
 public:
  // `pois` must outlive the annotator.
  PointAnnotator(const PoiSet* pois, PointAnnotatorConfig config = {});

  // Decoded POI category per stop episode (kStop entries of `episodes`,
  // in order). Error if the model is malformed. `scratch` (when
  // non-null) supplies the emission matrix and Viterbi working memory.
  [[nodiscard]] common::Result<std::vector<int>> InferStopCategories(
      const std::vector<core::Episode>& episodes,
      PointScratch* scratch = nullptr) const;

  // Full Algorithm 3: emits one semantic episode per stop, annotated
  // with the decoded category and linked to a concrete POI when one is
  // close enough; interpretation "point". `scratch` as above.
  [[nodiscard]] common::Result<core::StructuredSemanticTrajectory> Annotate(
      const core::RawTrajectory& trajectory,
      const std::vector<core::Episode>& episodes,
      PointScratch* scratch = nullptr) const;

  // Learns a personalized transition matrix (and initial distribution)
  // from an object's stop history via Baum-Welch — the paper's §4.3
  // extension ("learning dynamic and personalized transition matrix A").
  // Each element of `episode_sequences` is one trajectory's episode
  // list; only its stops contribute. Updates the annotator's model.
  [[nodiscard]] common::Result<hmm::BaumWelchResult> FitTransitions(
      const std::vector<std::vector<core::Episode>>& episode_sequences,
      const hmm::BaumWelchOptions& options = {});

  const hmm::HmmModel& model() const { return model_; }
  const PoiObservationModel& observation_model() const {
    return observation_model_;
  }

 private:
  // Fills `out` with one emission row per stop episode.
  void BuildEmissions(const std::vector<core::Episode>& episodes,
                      hmm::EmissionMatrix* out) const;

  const PoiSet* pois_;
  PointAnnotatorConfig config_;
  PoiObservationModel observation_model_;
  hmm::HmmModel model_;
};

// The paper's Fig. 6 example state-transition matrix for the five Milan
// categories: diagonal-dominant rows (0.8 self / 0.05 cross) for the
// four meaningful categories, and a weak "unknown" row (0.15 to each
// meaningful category, 0.4 self) — unknown stops readily transition
// into meaningful activities.
std::vector<std::vector<double>> Fig6TransitionMatrix();

// Baseline: each stop takes the category of the single nearest POI.
class NearestPoiAnnotator {
 public:
  explicit NearestPoiAnnotator(const PoiSet* pois) : pois_(pois) {}

  std::vector<int> InferStopCategories(
      const std::vector<core::Episode>& episodes) const;

 private:
  const PoiSet* pois_;
};

}  // namespace semitri::poi

#endif  // SEMITRI_POI_POINT_ANNOTATOR_H_
