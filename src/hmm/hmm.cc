#include "hmm/hmm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace semitri::hmm {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double SafeLog(double p) { return p > 0.0 ? std::log(p) : kNegInf; }

// Validates emissions shape against the model. All-zero rows are
// normalized to uniform by EffectiveRow at decode time.
common::Status CheckEmissions(const HmmModel& model,
                              const EmissionMatrix& emissions) {
  if (!emissions.empty() && emissions.cols() != model.num_states()) {
    return common::Status::InvalidArgument(common::StrFormat(
        "emission matrix has %zu columns, model has %zu states",
        emissions.cols(), model.num_states()));
  }
  for (double e : emissions.data()) {
    if (e < 0.0 || !std::isfinite(e)) {
      return common::Status::InvalidArgument(
          "emission probabilities must be finite and nonnegative");
    }
  }
  return common::Status::OK();
}

// The effective emission row at t: the row itself, or uniform when it
// sums to <= 0 (an uninformative observation). One contiguous pass —
// the per-lookup row sums of the seed's RowEmission are hoisted here.
void EffectiveRow(const EmissionMatrix& emissions, size_t t, double* out) {
  std::span<const double> row = emissions.Row(t);
  double sum = 0.0;
  for (double v : row) sum += v;
  if (sum <= 0.0) {
    double uniform = 1.0 / static_cast<double>(row.size());
    for (size_t i = 0; i < row.size(); ++i) out[i] = uniform;
  } else {
    for (size_t i = 0; i < row.size(); ++i) out[i] = row[i];
  }
}

// Flattens A row-major into out[i * n + j].
void FlattenTransition(const HmmModel& model, double* out) {
  const size_t n = model.num_states();
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& row = model.transition[i];
    for (size_t j = 0; j < n; ++j) out[i * n + j] = row[j];
  }
}

}  // namespace

common::Status ValidateModel(const HmmModel& model) {
  const size_t n = model.num_states();
  if (n == 0) {
    return common::Status::InvalidArgument("model has no states");
  }
  if (model.transition.size() != n) {
    return common::Status::InvalidArgument(common::StrFormat(
        "transition matrix has %zu rows, expected %zu",
        model.transition.size(), n));
  }
  double pi_sum = 0.0;
  for (double p : model.initial) {
    if (p < 0.0) {
      return common::Status::InvalidArgument("negative initial probability");
    }
    pi_sum += p;
  }
  if (std::abs(pi_sum - 1.0) > 1e-6) {
    return common::Status::InvalidArgument(
        common::StrFormat("initial probabilities sum to %f, not 1", pi_sum));
  }
  for (size_t i = 0; i < n; ++i) {
    if (model.transition[i].size() != n) {
      return common::Status::InvalidArgument(common::StrFormat(
          "transition row %zu has %zu entries, expected %zu", i,
          model.transition[i].size(), n));
    }
    double row_sum = 0.0;
    for (double p : model.transition[i]) {
      if (p < 0.0) {
        return common::Status::InvalidArgument(
            "negative transition probability");
      }
      row_sum += p;
    }
    if (std::abs(row_sum - 1.0) > 1e-6) {
      return common::Status::InvalidArgument(common::StrFormat(
          "transition row %zu sums to %f, not 1", i, row_sum));
    }
  }
  return common::Status::OK();
}

// semitri-lint: allow(hot-path-alloc) — model-construction API: the
// nested shape is the HmmModel::transition contract.
std::vector<std::vector<double>> MakeDefaultTransition(size_t num_states,
                                                       double self_prob) {
  // semitri-lint: allow(hot-path-alloc) — model-construction API: the
  // nested shape is the HmmModel::transition contract; decode paths
  // flatten it once per call (FlattenTransition).
  std::vector<std::vector<double>> a(num_states,
                                     std::vector<double>(num_states));
  double off = num_states > 1
                   ? (1.0 - self_prob) / static_cast<double>(num_states - 1)
                   : 0.0;
  for (size_t i = 0; i < num_states; ++i) {
    for (size_t j = 0; j < num_states; ++j) {
      a[i][j] = i == j ? (num_states == 1 ? 1.0 : self_prob) : off;
    }
  }
  return a;
}

common::Result<ViterbiResult> Viterbi(const HmmModel& model,
                                      const EmissionMatrix& emissions,
                                      common::Arena* scratch) {
  SEMITRI_RETURN_IF_ERROR(ValidateModel(model));
  SEMITRI_RETURN_IF_ERROR(CheckEmissions(model, emissions));
  ViterbiResult result;
  if (emissions.empty()) return result;

  const size_t n = model.num_states();
  const size_t t_max = emissions.rows();

  // Decode working set, bump-allocated: the column-major log-transition
  // matrix (so the argmax inner loop reads contiguously), two rolling
  // delta rows (Eq. 5–6), the effective emission row, and the full
  // backpointer table psi (Eq. 7).
  common::Arena local;
  common::Arena& arena = scratch != nullptr ? *scratch : local;
  std::span<double> log_at = arena.AllocSpan<double>(n * n);
  std::span<double> delta_a = arena.AllocSpan<double>(n);
  std::span<double> delta_b = arena.AllocSpan<double>(n);
  std::span<double> b_row = arena.AllocSpan<double>(n);
  std::span<uint32_t> psi = arena.AllocSpan<uint32_t>(t_max * n);

  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& row = model.transition[i];
    for (size_t j = 0; j < n; ++j) log_at[j * n + i] = SafeLog(row[j]);
  }

  double* prev = delta_a.data();
  double* cur = delta_b.data();
  EffectiveRow(emissions, 0, b_row.data());
  for (size_t i = 0; i < n; ++i) {
    prev[i] = SafeLog(model.initial[i]) + SafeLog(b_row[i]);
    psi[i] = 0;
  }
  for (size_t t = 1; t < t_max; ++t) {
    EffectiveRow(emissions, t, b_row.data());
    uint32_t* psi_t = psi.data() + t * n;
    for (size_t j = 0; j < n; ++j) {
      const double* a_col = log_at.data() + j * n;
      double best = kNegInf;
      size_t best_i = 0;
      for (size_t i = 0; i < n; ++i) {
        double v = prev[i] + a_col[i];
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      cur[j] = best + SafeLog(b_row[j]);
      psi_t[j] = static_cast<uint32_t>(best_i);
    }
    std::swap(prev, cur);
  }
  // Termination + backtracking (Algorithm 3 lines 12–16).
  size_t best_state = 0;
  double best = kNegInf;
  for (size_t i = 0; i < n; ++i) {
    if (prev[i] > best) {
      best = prev[i];
      best_state = i;
    }
  }
  SEMITRI_DCHECK(best_state < n)
      << "Viterbi termination chose state " << best_state << " of " << n;
  result.log_probability = best;
  result.states.resize(t_max);
  result.states[t_max - 1] = best_state;
  for (size_t t = t_max - 1; t > 0; --t) {
    result.states[t - 1] = psi[t * n + result.states[t]];
  }
  return result;
}

common::Result<double> ForwardLogLikelihood(const HmmModel& model,
                                            const EmissionMatrix& emissions) {
  SEMITRI_RETURN_IF_ERROR(ValidateModel(model));
  SEMITRI_RETURN_IF_ERROR(CheckEmissions(model, emissions));
  if (emissions.empty()) return 0.0;

  const size_t n = model.num_states();
  // Scaled forward recursion: alpha is renormalized each step and the
  // log of the scale factors accumulates into the total likelihood.
  common::Arena arena;
  std::span<double> a = arena.AllocSpan<double>(n * n);
  std::span<double> alpha = arena.AllocSpan<double>(n);
  std::span<double> next = arena.AllocSpan<double>(n);
  std::span<double> b_row = arena.AllocSpan<double>(n);
  FlattenTransition(model, a.data());

  double log_likelihood = 0.0;
  EffectiveRow(emissions, 0, b_row.data());
  for (size_t i = 0; i < n; ++i) {
    alpha[i] = model.initial[i] * b_row[i];
  }
  for (size_t t = 0;; ++t) {
    double scale = 0.0;
    for (double v : alpha) scale += v;
    if (scale <= 0.0) {
      return common::Status::InvalidArgument(
          "observation sequence has zero likelihood under the model");
    }
    for (double& v : alpha) v /= scale;
    log_likelihood += std::log(scale);
    if (t + 1 == emissions.rows()) break;
    EffectiveRow(emissions, t + 1, b_row.data());
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += alpha[i] * a[i * n + j];
      }
      next[j] = acc * b_row[j];
    }
    std::swap(alpha, next);
  }
  return log_likelihood;
}

namespace {

// Per-timestep-normalized forward/backward variables for one sequence,
// in flat t*n layout. `work` supplies every buffer (reused across
// sequences by BaumWelch). Returns the sequence log-likelihood.
struct ForwardBackwardWork {
  std::vector<double> a;      // flat row-major transition
  std::vector<double> b_eff;  // flat effective emission rows
  std::vector<double> alpha;  // flat t*n
  std::vector<double> beta;   // flat t*n
  std::vector<double> scale;  // per-t normalizer
};

double ForwardBackward(const HmmModel& model, const EmissionMatrix& emissions,
                       ForwardBackwardWork* work) {
  // Callers validate the model and skip empty sequences; the backward
  // recursion below would index emissions row t_max - 1 otherwise.
  SEMITRI_DCHECK(!emissions.empty())
      << "ForwardBackward requires a non-empty observation sequence";
  const size_t n = model.num_states();
  const size_t t_max = emissions.rows();
  work->a.resize(n * n);
  FlattenTransition(model, work->a.data());
  work->b_eff.resize(t_max * n);
  for (size_t t = 0; t < t_max; ++t) {
    EffectiveRow(emissions, t, work->b_eff.data() + t * n);
  }
  work->alpha.assign(t_max * n, 0.0);
  work->beta.assign(t_max * n, 1.0);
  work->scale.assign(t_max, 0.0);
  const double* a = work->a.data();
  const double* b = work->b_eff.data();
  double* alpha = work->alpha.data();
  double* beta = work->beta.data();

  for (size_t i = 0; i < n; ++i) {
    alpha[i] = model.initial[i] * b[i];
  }
  double log_likelihood = 0.0;
  for (size_t t = 0; t < t_max; ++t) {
    double* alpha_t = alpha + t * n;
    if (t > 0) {
      const double* alpha_prev = alpha + (t - 1) * n;
      const double* b_t = b + t * n;
      for (size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) {
          acc += alpha_prev[i] * a[i * n + j];
        }
        alpha_t[j] = acc * b_t[j];
      }
    }
    double c = 0.0;
    for (size_t j = 0; j < n; ++j) c += alpha_t[j];
    if (c <= 0.0) c = 1e-300;
    for (size_t j = 0; j < n; ++j) alpha_t[j] /= c;
    work->scale[t] = c;
    log_likelihood += std::log(c);
  }
  for (size_t t = t_max - 1; t-- > 0;) {
    const double* b_next = b + (t + 1) * n;
    const double* beta_next = beta + (t + 1) * n;
    double* beta_t = beta + t * n;
    const double scale_next = work->scale[t + 1];
    for (size_t i = 0; i < n; ++i) {
      const double* a_row = a + i * n;
      double acc = 0.0;
      for (size_t j = 0; j < n; ++j) {
        acc += a_row[j] * b_next[j] * beta_next[j];
      }
      beta_t[i] = acc / scale_next;
    }
  }
  return log_likelihood;
}

}  // namespace

common::Result<EmissionMatrix> PosteriorDecode(
    const HmmModel& model, const EmissionMatrix& emissions) {
  SEMITRI_RETURN_IF_ERROR(ValidateModel(model));
  SEMITRI_RETURN_IF_ERROR(CheckEmissions(model, emissions));
  EmissionMatrix gamma;
  if (emissions.empty()) return gamma;
  ForwardBackwardWork work;
  ForwardBackward(model, emissions, &work);
  const size_t n = model.num_states();
  const size_t t_max = emissions.rows();
  gamma = EmissionMatrix(t_max, n);
  for (size_t t = 0; t < t_max; ++t) {
    const double* alpha_t = work.alpha.data() + t * n;
    const double* beta_t = work.beta.data() + t * n;
    std::span<double> row = gamma.Row(t);
    double norm = 0.0;
    for (size_t i = 0; i < n; ++i) {
      row[i] = alpha_t[i] * beta_t[i];
      norm += row[i];
    }
    if (norm <= 0.0) {
      // Degenerate; fall back to uniform.
      for (double& g : row) g = 1.0 / static_cast<double>(n);
      continue;
    }
    for (double& g : row) g /= norm;
  }
  return gamma;
}

common::Result<BaumWelchResult> BaumWelch(
    const HmmModel& initial_model, const std::vector<EmissionMatrix>& sequences,
    const BaumWelchOptions& options) {
  SEMITRI_RETURN_IF_ERROR(ValidateModel(initial_model));
  for (const EmissionMatrix& seq : sequences) {
    SEMITRI_RETURN_IF_ERROR(CheckEmissions(initial_model, seq));
  }
  const size_t n = initial_model.num_states();
  BaumWelchResult result;
  result.model = initial_model;
  double previous_ll = -std::numeric_limits<double>::infinity();

  // Expected-count accumulators and the xi buffer, flat n*n, allocated
  // once for the whole EM run.
  std::vector<double> initial_counts(n);
  std::vector<double> transition_counts(n * n);
  std::vector<double> gamma0(n);
  std::vector<double> xi(n * n);
  ForwardBackwardWork work;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(initial_counts.begin(), initial_counts.end(),
              options.smoothing);
    std::fill(transition_counts.begin(), transition_counts.end(),
              options.smoothing);
    double total_ll = 0.0;
    size_t used_sequences = 0;

    for (const EmissionMatrix& emissions : sequences) {
      if (emissions.empty()) continue;
      ++used_sequences;
      total_ll += ForwardBackward(result.model, emissions, &work);
      const size_t t_max = emissions.rows();
      const double* a = work.a.data();
      const double* b = work.b_eff.data();
      const double* alpha = work.alpha.data();
      const double* beta = work.beta.data();
      // gamma_0 for π.
      double norm = 0.0;
      for (size_t i = 0; i < n; ++i) {
        gamma0[i] = alpha[i] * beta[i];
        norm += gamma0[i];
      }
      if (norm > 0.0) {
        for (size_t i = 0; i < n; ++i) initial_counts[i] += gamma0[i] / norm;
      }
      // xi_t for A.
      for (size_t t = 0; t + 1 < t_max; ++t) {
        const double* alpha_t = alpha + t * n;
        const double* b_next = b + (t + 1) * n;
        const double* beta_next = beta + (t + 1) * n;
        double xi_norm = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double* a_row = a + i * n;
          double* xi_row = xi.data() + i * n;
          for (size_t j = 0; j < n; ++j) {
            xi_row[j] = alpha_t[i] * a_row[j] * b_next[j] * beta_next[j];
            xi_norm += xi_row[j];
          }
        }
        if (xi_norm <= 0.0) continue;
        for (size_t k = 0; k < n * n; ++k) {
          transition_counts[k] += xi[k] / xi_norm;
        }
      }
    }
    if (used_sequences == 0) {
      return common::Status::InvalidArgument(
          "Baum-Welch needs at least one non-empty sequence");
    }

    // M step.
    if (options.learn_initial) {
      double pi_sum = 0.0;
      for (double c : initial_counts) pi_sum += c;
      for (size_t i = 0; i < n; ++i) {
        result.model.initial[i] = initial_counts[i] / pi_sum;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const double* counts_row = transition_counts.data() + i * n;
      double row_sum = 0.0;
      for (size_t j = 0; j < n; ++j) row_sum += counts_row[j];
      SEMITRI_DCHECK(row_sum > 0.0)
          << "transition row " << i << " has zero expected count; "
          << "BaumWelchOptions::smoothing must be > 0 when a state can "
          << "go unobserved";
      for (size_t j = 0; j < n; ++j) {
        result.model.transition[i][j] = counts_row[j] / row_sum;
      }
    }
    result.log_likelihood = total_ll;
    result.iterations = iter + 1;
    if (total_ll - previous_ll < options.tolerance && iter > 0) break;
    previous_ll = total_ll;
  }
  return result;
}

}  // namespace semitri::hmm
