#ifndef SEMITRI_COMMON_CLOCK_H_
#define SEMITRI_COMMON_CLOCK_H_

// Injectable time source for everything in the library that reads the
// wall clock or sleeps: retry backoff (common::RetryPolicy), failure
// detection and session idle tracking.
//
// Production code uses Clock::Real() (std::chrono::steady_clock).
// Tests inject a FakeClock so retry/backoff/eviction behavior is
// exercised deterministically in milliseconds of real time: FakeClock
// never blocks — SleepFor simply advances the fake now.
//
// All methods are const so a `const Clock*` can be shared freely across
// threads; FakeClock keeps its state in atomics.

#include <atomic>
#include <cstdint>

namespace semitri::common {

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic nanoseconds since an arbitrary epoch.
  virtual int64_t NowNanos() const = 0;

  // Blocks the calling thread for `seconds` (no-op for <= 0). FakeClock
  // advances instead of blocking.
  virtual void SleepFor(double seconds) const = 0;

  // The process-wide real (steady) clock.
  static const Clock* Real();
};

// Deterministic test clock: time moves only when told to.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(int64_t start_nanos = 0) : now_nanos_(start_nanos) {}

  int64_t NowNanos() const override {
    return now_nanos_.load(std::memory_order_relaxed);
  }

  void SleepFor(double seconds) const override {
    if (seconds > 0.0) Advance(seconds);
  }

  // Moves the fake time forward.
  void Advance(double seconds) const {
    now_nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9));
  }

 private:
  mutable std::atomic<int64_t> now_nanos_;
};

}  // namespace semitri::common

#endif  // SEMITRI_COMMON_CLOCK_H_
