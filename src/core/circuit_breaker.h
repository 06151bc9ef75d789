#ifndef SEMITRI_CORE_CIRCUIT_BREAKER_H_
#define SEMITRI_CORE_CIRCUIT_BREAKER_H_

// Per-stage circuit breaker: stops a persistently failing (or
// persistently slow) stage from being run, and failing, on every
// trajectory. Wraps the stage's FailurePolicy rather than replacing it
// — while the breaker is open the stage graph short-circuits the stage
// with Status::Unavailable *without* running it, and the stage's
// FailurePolicy then decides whether the run degrades (skip-and-record)
// or fails, exactly as for a real stage error.
//
// State machine (the classical closed -> open -> half-open loop):
//
//         failure_threshold consecutive failures
//   CLOSED ────────────────────────────────────────► OPEN
//     ▲                                                │ backoff elapses
//     │  half_open_successes consecutive successes     ▼
//     └──────────────────────────────────────────── HALF-OPEN
//                                                      │ any failure
//                                                      └──────► OPEN
//                                                       (backoff doubles,
//                                                        capped + jitter)
//
// A success with latency above latency_threshold_seconds counts as a
// failure, so a wedged-but-not-erroring dependency (e.g. a POI
// repository stuck in timeouts) also trips the breaker. The open-state
// backoff is exponential, capped, with deterministic seeded jitter drawn
// from common::Rng so tests reproduce transition times bit-for-bit under
// a FakeClock.
//
// Thread-safe: one breaker instance is shared by every thread running
// the (immutable) stage graph, so all state is mutex-guarded.

#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace semitri::core {

enum class BreakerState { kClosed = 0, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerConfig {
  // Consecutive failures (in closed state) that open the breaker.
  size_t failure_threshold = 5;
  // Successes slower than this count as failures (0 disables latency
  // tripping).
  double latency_threshold_seconds = 0.0;
  // Open-state backoff before the first half-open probe; doubles on
  // every re-open, capped.
  double open_backoff_seconds = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 30.0;
  // Deterministic jitter: each open period is stretched by a factor in
  // [1, 1 + jitter_fraction), drawn from a stream seeded with
  // jitter_seed (common::Rng), so coordinated breakers de-synchronize
  // without losing reproducibility.
  double jitter_fraction = 0.1;
  uint64_t jitter_seed = 42;
  // Consecutive half-open successes required to close again.
  size_t half_open_successes = 1;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {},
                          const common::Clock* clock = nullptr);

  // Whether an execution may proceed now. Transitions open -> half-open
  // when the backoff has elapsed; returns false (and counts a rejection)
  // while the breaker is open.
  bool Allow() SEMITRI_EXCLUDES(mutex_);

  // Outcome reporting for executions that were allowed.
  void RecordSuccess(double latency_seconds) SEMITRI_EXCLUDES(mutex_);
  void RecordFailure() SEMITRI_EXCLUDES(mutex_);

  BreakerState state() const SEMITRI_EXCLUDES(mutex_);

  struct Stats {
    BreakerState state = BreakerState::kClosed;
    size_t consecutive_failures = 0;
    size_t times_opened = 0;
    // Executions short-circuited while open.
    size_t rejected = 0;
    size_t successes = 0;
    size_t failures = 0;
    // Backoff the *next* open period would start from.
    double current_backoff_seconds = 0.0;
  };
  Stats stats() const SEMITRI_EXCLUDES(mutex_);

  const CircuitBreakerConfig& config() const { return config_; }

 private:
  void OpenLocked() SEMITRI_REQUIRES(mutex_);

  const CircuitBreakerConfig config_;
  const common::Clock* clock_;

  mutable std::mutex mutex_;
  BreakerState state_ SEMITRI_GUARDED_BY(mutex_) = BreakerState::kClosed;
  size_t consecutive_failures_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t half_open_streak_ SEMITRI_GUARDED_BY(mutex_) = 0;
  double backoff_seconds_ SEMITRI_GUARDED_BY(mutex_);
  int64_t open_until_nanos_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t times_opened_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t rejected_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t successes_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t failures_ SEMITRI_GUARDED_BY(mutex_) = 0;
  common::Rng jitter_ SEMITRI_GUARDED_BY(mutex_);
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_CIRCUIT_BREAKER_H_
