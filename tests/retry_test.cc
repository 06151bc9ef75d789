// Tests for common::RetryPolicy: deterministic capped-exponential
// backoff with jitter, retryable-code classification, and the
// on_backoff hook the shard router hangs its failure-detector ticks on.
// Everything runs on a FakeClock — sleeping advances fake time, so the
// whole retry timeline is asserted exactly.

#include "common/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace semitri::common {
namespace {

TEST(RetryPolicyTest, ClassifiesRetryableCodes) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("down")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::ResourceExhausted("full")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::NotFound("gone")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::OK()));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicyConfig config;
  config.initial_backoff_seconds = 0.1;
  config.backoff_multiplier = 2.0;
  config.max_backoff_seconds = 0.5;
  config.jitter_fraction = 0.0;  // exact curve
  RetryPolicy policy(config);

  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 0.1);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 0.2);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 0.4);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(4), 0.5);   // capped
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(10), 0.5);  // stays capped
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
  RetryPolicyConfig config;
  config.initial_backoff_seconds = 1.0;
  config.backoff_multiplier = 1.0;
  config.max_backoff_seconds = 1.0;
  config.jitter_fraction = 0.25;
  RetryPolicy policy(config);
  RetryPolicy twin(config);

  bool spread = false;
  double first = policy.BackoffSeconds(1, /*stream=*/0);
  for (uint64_t stream = 0; stream < 32; ++stream) {
    for (size_t retry = 1; retry <= 4; ++retry) {
      double b = policy.BackoffSeconds(retry, stream);
      EXPECT_GE(b, 1.0);
      EXPECT_LT(b, 1.25);
      // Same (seed, stream, retry) always replays the same backoff.
      EXPECT_DOUBLE_EQ(b, twin.BackoffSeconds(retry, stream));
      if (b != first) spread = true;
    }
  }
  // Different streams decorrelate: not every draw is identical.
  EXPECT_TRUE(spread);
}

TEST(RetryPolicyTest, SucceedsAfterTransientFailures) {
  FakeClock clock;
  RetryPolicyConfig config;
  config.max_attempts = 5;
  config.jitter_fraction = 0.0;
  RetryPolicy policy(config, &clock);

  size_t calls = 0;
  auto outcome = policy.Run([&]() -> Status {
    ++calls;
    return calls < 3 ? Status::Unavailable("warming up") : Status::OK();
  });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_TRUE(outcome.recovered);
  // Slept exactly backoff(1) + backoff(2), advancing the fake clock.
  EXPECT_DOUBLE_EQ(outcome.slept_seconds,
                   policy.BackoffSeconds(1) + policy.BackoffSeconds(2));
  EXPECT_DOUBLE_EQ(static_cast<double>(clock.NowNanos()) * 1e-9,
                   outcome.slept_seconds);
}

TEST(RetryPolicyTest, FirstTrySuccessIsNotRecovered) {
  FakeClock clock;
  RetryPolicy policy({}, &clock);
  auto outcome = policy.Run([]() { return Status::OK(); });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_FALSE(outcome.recovered);
  EXPECT_DOUBLE_EQ(outcome.slept_seconds, 0.0);
}

TEST(RetryPolicyTest, NonRetryableFailsFast) {
  FakeClock clock;
  RetryPolicyConfig config;
  config.max_attempts = 6;
  RetryPolicy policy(config, &clock);

  size_t calls = 0;
  auto outcome = policy.Run([&]() {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(clock.NowNanos(), 0);
}

TEST(RetryPolicyTest, ExhaustsAttemptsAndReportsLastError) {
  FakeClock clock;
  RetryPolicyConfig config;
  config.max_attempts = 4;
  config.jitter_fraction = 0.0;
  RetryPolicy policy(config, &clock);

  size_t calls = 0;
  auto outcome = policy.Run([&]() {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(outcome.attempts, 4u);
  EXPECT_EQ(calls, 4u);
  // Three backoffs: after attempts 1, 2 and 3.
  EXPECT_DOUBLE_EQ(outcome.slept_seconds, policy.BackoffSeconds(1) +
                                              policy.BackoffSeconds(2) +
                                              policy.BackoffSeconds(3));
}

TEST(RetryPolicyTest, OnBackoffHookRunsBeforeEverySleep) {
  FakeClock clock;
  RetryPolicyConfig config;
  config.max_attempts = 4;
  config.jitter_fraction = 0.0;
  RetryPolicy policy(config, &clock);

  std::vector<double> hook_times;
  auto outcome = policy.Run(
      []() { return Status::Unavailable("down"); },
      /*stream=*/0,
      [&]() {
        hook_times.push_back(static_cast<double>(clock.NowNanos()) * 1e-9);
      });
  EXPECT_FALSE(outcome.status.ok());
  // One hook call per backoff, fired before the sleep advances time —
  // this is where the shard cluster ticks its failure detector.
  ASSERT_EQ(hook_times.size(), 3u);
  EXPECT_DOUBLE_EQ(hook_times[0], 0.0);
  EXPECT_DOUBLE_EQ(hook_times[1], policy.BackoffSeconds(1));
  EXPECT_DOUBLE_EQ(hook_times[2],
                   policy.BackoffSeconds(1) + policy.BackoffSeconds(2));
}

}  // namespace
}  // namespace semitri::common
