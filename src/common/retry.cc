#include "common/retry.h"

#include <algorithm>

#include "common/check.h"

namespace semitri::common {

namespace {

// splitmix64 — cheap stateless mixing for the jitter hash.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RetryPolicy::RetryPolicy(RetryPolicyConfig config, const Clock* clock)
    : config_(config), clock_(clock != nullptr ? clock : Clock::Real()) {
  SEMITRI_CHECK(config_.max_attempts >= 1)
      << "a retry policy needs at least one attempt";
  SEMITRI_CHECK(config_.backoff_multiplier >= 1.0)
      << "backoff must not shrink";
  SEMITRI_CHECK(config_.jitter_fraction >= 0.0) << "negative jitter";
}

bool RetryPolicy::IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kResourceExhausted;
}

double RetryPolicy::BackoffSeconds(size_t retry_index, uint64_t stream) const {
  if (retry_index == 0) return 0.0;
  double backoff = config_.initial_backoff_seconds;
  for (size_t i = 1; i < retry_index; ++i) {
    backoff *= config_.backoff_multiplier;
    if (backoff >= config_.max_backoff_seconds) break;
  }
  backoff = std::min(backoff, config_.max_backoff_seconds);
  if (config_.jitter_fraction > 0.0) {
    uint64_t h = Mix64(config_.jitter_seed ^ Mix64(stream) ^
                       Mix64(static_cast<uint64_t>(retry_index)));
    double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    backoff *= 1.0 + config_.jitter_fraction * unit;
  }
  return backoff;
}

RetryPolicy::Outcome RetryPolicy::Run(
    const std::function<Status()>& op, uint64_t stream,
    const std::function<void()>& on_backoff) const {
  Outcome out;
  for (size_t attempt = 1;; ++attempt) {
    ++out.attempts;
    out.status = op();
    if (out.status.ok()) {
      out.recovered = attempt > 1;
      return out;
    }
    if (attempt >= config_.max_attempts || !IsRetryable(out.status)) {
      return out;
    }
    double backoff = BackoffSeconds(attempt, stream);
    if (on_backoff) on_backoff();
    clock_->SleepFor(backoff);
    out.slept_seconds += backoff;
  }
}

}  // namespace semitri::common
