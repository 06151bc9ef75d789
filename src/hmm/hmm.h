#ifndef SEMITRI_HMM_HMM_H_
#define SEMITRI_HMM_HMM_H_

// Hidden Markov Model and Viterbi decoding (paper §4.3, Algorithm 3;
// Rabiner [25], Forney [7]).
//
// λ = (π, A, B). π and A live in HmmModel; emission probabilities B are
// supplied per observation as a flat row-major T×N EmissionMatrix (the
// Semantic Point layer computes them from the POI observation model),
// which keeps this module independent of the observation space.
//
// Decoding runs in log space so long stop sequences do not underflow.
// The sweeps are written as contiguous flat-array loops (log-transition
// matrix precomputed once per decode, rolling delta rows) — see
// DESIGN.md "Data plane layout" for the kernel-writing rules.

#include <cstddef>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "hmm/emission_matrix.h"

namespace semitri::hmm {

struct HmmModel {
  // initial[i] = Pr(state i at t=0);  transition[i][j] = Pr(j | i).
  std::vector<double> initial;
  std::vector<std::vector<double>> transition;

  size_t num_states() const { return initial.size(); }
};

// Checks shapes and (approximate) stochasticity of π and A.
[[nodiscard]] common::Status ValidateModel(const HmmModel& model);

// Row-stochastic matrix with `self_prob` on the diagonal and the rest
// spread uniformly (the paper's Fig. 6 default initialization pattern).
std::vector<std::vector<double>> MakeDefaultTransition(size_t num_states,
                                                       double self_prob);

struct ViterbiResult {
  std::vector<size_t> states;  // best state per observation
  double log_probability = 0.0;
};

// Most likely hidden state sequence for `emissions`, where
// emissions.At(t, i) = Pr(o_t | state i) (any nonnegative, relative
// scale per row is sufficient). Rows with all-zero emissions are
// treated as uninformative (uniform). `scratch` (when non-null)
// provides the decode working set — backpointers, rolling delta rows,
// the log-transition matrix — so repeated decodes allocate nothing.
[[nodiscard]] common::Result<ViterbiResult> Viterbi(
    const HmmModel& model, const EmissionMatrix& emissions,
    common::Arena* scratch = nullptr);

// Total observation likelihood log Pr(O | λ) via the forward algorithm
// (used by tests: Viterbi path probability never exceeds it).
[[nodiscard]] common::Result<double> ForwardLogLikelihood(
    const HmmModel& model, const EmissionMatrix& emissions);

// Posterior state probabilities gamma.At(t, i) = Pr(state i at t | O, λ)
// via forward-backward — the paper's "activity likelihoods and
// probabilistic estimates of the purpose behind that stop" (§3.3).
// Rows sum to 1.
[[nodiscard]] common::Result<EmissionMatrix> PosteriorDecode(
    const HmmModel& model, const EmissionMatrix& emissions);

// --- Baum-Welch -------------------------------------------------------
//
// Learns π and A from observation sequences by expectation-maximization,
// with the emission model held fixed (the Semantic Point layer's
// emissions come from POI densities, not from free parameters). This
// realizes the paper's noted extension: "Learning dynamic and
// personalized transition matrix A is interesting but not the focus of
// this paper" (§4.3).

struct BaumWelchOptions {
  size_t max_iterations = 100;
  // Stop when the total log-likelihood improves by less than this.
  double tolerance = 1e-6;
  bool learn_initial = true;
  // Dirichlet-style smoothing added to every expected count; keeps rows
  // stochastic when a transition is never observed.
  double smoothing = 1e-3;
};

struct BaumWelchResult {
  HmmModel model;
  double log_likelihood = 0.0;
  size_t iterations = 0;
};

// `sequences` holds one emission matrix (T_s x N) per observation
// sequence (e.g. one per daily trajectory). Empty sequences are skipped.
[[nodiscard]] common::Result<BaumWelchResult> BaumWelch(
    const HmmModel& initial_model,
    const std::vector<EmissionMatrix>& sequences,
    const BaumWelchOptions& options = {});

}  // namespace semitri::hmm

#endif  // SEMITRI_HMM_HMM_H_
