#ifndef SEMITRI_COMMON_RETRY_H_
#define SEMITRI_COMMON_RETRY_H_

// Reusable retry policy for transient failures: capped exponential
// backoff with deterministic, decorrelated jitter. The shard router
// uses it so a Feed() that lands on a failing-over shard waits out the
// detection + promotion window instead of hard-failing; anything else
// with an at-least-once contract can reuse it.
//
// A RetryPolicy is an immutable value: all per-call state lives on the
// caller's stack inside Run(), so one policy can serve every thread of
// a cluster without locking. Jitter is derived by hashing
// (jitter_seed, stream, attempt) — same seed + same stream replays the
// same backoff sequence (FakeClock-deterministic tests), different
// streams (e.g. different object ids) decorrelate so a thundering herd
// of retries spreads out.
//
// Sleeping happens on the injected Clock: production blocks, FakeClock
// advances, so a retry loop in a single-threaded test moves fake time
// forward — which is exactly what lets a colocated failure detector
// cross its suspicion threshold mid-retry (see shard::ShardCluster).

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "common/status.h"

namespace semitri::common {

struct RetryPolicyConfig {
  // Total attempts including the first; 1 = no retries.
  size_t max_attempts = 4;
  // Backoff before retry k (1-based) is
  //   min(initial * multiplier^(k-1), max) * jitter, jitter in
  //   [1, 1 + jitter_fraction).
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  double jitter_fraction = 0.1;
  uint64_t jitter_seed = 42;
};

class RetryPolicy {
 public:
  explicit RetryPolicy(RetryPolicyConfig config = {},
                       const Clock* clock = nullptr);

  // Transient codes worth retrying: Unavailable (shard down, mid
  // failover) and ResourceExhausted (admission pushback that drains).
  static bool IsRetryable(const Status& status);

  // Backoff before retry `retry_index` (1-based), jitter included.
  // Pure function of (config, stream, retry_index).
  double BackoffSeconds(size_t retry_index, uint64_t stream = 0) const;

  struct Outcome {
    Status status;        // the last attempt's status
    size_t attempts = 0;  // attempts actually made (>= 1)
    double slept_seconds = 0.0;
    // True when the final attempt succeeded after at least one retry.
    bool recovered = false;
  };

  // Runs `op` up to max_attempts times, sleeping the jittered backoff
  // on the policy clock between attempts and calling `on_backoff`
  // (when set) just before each sleep — the hook the shard router uses
  // to tick its failure detector while waiting. Stops early when the
  // error is not retryable.
  Outcome Run(const std::function<Status()>& op, uint64_t stream = 0,
              const std::function<void()>& on_backoff = nullptr) const;

  const RetryPolicyConfig& config() const { return config_; }
  const Clock* clock() const { return clock_; }

 private:
  RetryPolicyConfig config_;
  const Clock* clock_;  // never null after construction
};

}  // namespace semitri::common

#endif  // SEMITRI_COMMON_RETRY_H_
