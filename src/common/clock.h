#ifndef SEMITRI_COMMON_CLOCK_H_
#define SEMITRI_COMMON_CLOCK_H_

// Injectable time source for everything in the library that reads the
// wall clock or sleeps: deadline checks, retry backoff
// (common::RetryPolicy), circuit-breaker open/half-open transitions,
// session idle tracking and admission token buckets.
//
// Production code uses Clock::Real() (std::chrono::steady_clock).
// Tests inject a FakeClock so retry/backoff/deadline/eviction behavior
// is exercised deterministically in milliseconds of real time: FakeClock
// never blocks — SleepFor simply advances the fake now — and an optional
// auto-advance makes every NowNanos() call move time forward, which lets
// a test expire a deadline in the middle of a loop without threads.
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

  double NowSeconds() const { return static_cast<double>(NowNanos()) * 1e-9; }

  // The process-wide real (steady) clock.
  static const Clock* Real();
};

// Deterministic test clock: time moves only when told to.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(int64_t start_nanos = 0) : now_nanos_(start_nanos) {}

  int64_t NowNanos() const override {
    int64_t step = auto_advance_nanos_.load(std::memory_order_relaxed);
    if (step != 0) return now_nanos_.fetch_add(step) + step;
    return now_nanos_.load(std::memory_order_relaxed);
  }

  void SleepFor(double seconds) const override {
    if (seconds > 0.0) Advance(seconds);
  }

  // Moves the fake time forward.
  void Advance(double seconds) const {
    now_nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9));
  }

  // Every NowNanos() call advances time by `seconds` — deadline checks
  // themselves consume wall time, so a loop with periodic checks runs
  // out of budget deterministically, without threads or real waiting.
  void set_auto_advance(double seconds) {
    auto_advance_nanos_.store(static_cast<int64_t>(seconds * 1e9),
                              std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<int64_t> now_nanos_;
  std::atomic<int64_t> auto_advance_nanos_{0};
};

}  // namespace semitri::common

#endif  // SEMITRI_COMMON_CLOCK_H_
