#ifndef SEMITRI_COMMON_RNG_H_
#define SEMITRI_COMMON_RNG_H_

// Deterministic random number generation. All stochastic components of the
// library (data generators, GPS noise models) draw from an explicitly
// seeded Rng so that tests and benchmarks are reproducible bit-for-bit.

#include <cstdint>
#include <random>

namespace semitri::common {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Standard normal scaled: mean + stddev * N(0,1). Draws from the
  // engine even at stddev 0, where it returns the mean, so a noise-free
  // caller keeps the stream in step with a noisy one.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * std::normal_distribution<double>(0.0, 1.0)(engine_);
  }

  // Exponential with the given mean (= 1/lambda).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Index drawn from a discrete distribution given by (unnormalized) weights.
  template <typename Weights>
  size_t Discrete(const Weights& weights) {
    std::discrete_distribution<size_t> dist(weights.begin(), weights.end());
    return dist(engine_);
  }

  // Derives an independent child stream; used to decorrelate sub-generators
  // (e.g. per-agent noise) without sharing engine state.
  Rng Fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace semitri::common

#endif  // SEMITRI_COMMON_RNG_H_
