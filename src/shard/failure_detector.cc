#include "shard/failure_detector.h"

#include "common/check.h"
#include "common/fault_injection.h"

namespace semitri::shard {

FailureDetector::FailureDetector(FailureDetectorConfig config,
                                 const common::Clock* clock)
    : config_(config),
      clock_(clock != nullptr ? clock : common::Clock::Real()) {
  SEMITRI_CHECK(config_.suspect_after >= 1) << "suspect_after must be >= 1";
  SEMITRI_CHECK(config_.dead_after >= config_.suspect_after)
      << "dead_after must be >= suspect_after";
}

const FailureDetector::Slot* FailureDetector::FindSlot(ShardId shard) const {
  if (shard >= slots_.size()) return nullptr;
  return &slots_[shard];
}

FailureDetector::Slot* FailureDetector::EnsureSlot(ShardId shard) {
  if (shard >= slots_.size()) slots_.resize(shard + 1);
  return &slots_[shard];
}

bool FailureDetector::ProbeDue(ShardId shard) const {
  const Slot* slot = FindSlot(shard);
  if (slot == nullptr || !slot->probed) return true;
  if (config_.probe_interval_seconds <= 0.0) return true;
  int64_t elapsed = clock_->NowNanos() - slot->last_probe_nanos;
  return static_cast<double>(elapsed) * 1e-9 >=
         config_.probe_interval_seconds;
}

Liveness FailureDetector::Observe(ShardId shard, bool probe_ok) {
  if (SEMITRI_FAULT_FIRE("detector_probe") != common::FaultAction::kNone) {
    // An injected probe fault is indistinguishable from the shard not
    // answering: the streak advances even when the runtime is healthy.
    probe_ok = false;
  }
  Slot* slot = EnsureSlot(shard);
  slot->probed = true;
  slot->last_probe_nanos = clock_->NowNanos();
  ++slot->obs.probes;
  if (probe_ok) {
    slot->obs.consecutive_failures = 0;
    slot->obs.first_failure_nanos = 0;
    // A dead declaration stands until Forget(): one successful probe
    // must not cancel a failover already in flight.
    if (slot->obs.state != Liveness::kDead) {
      slot->obs.state = Liveness::kAlive;
    }
    return slot->obs.state;
  }
  ++slot->obs.consecutive_failures;
  // Keyed off the streak, not a zero-timestamp sentinel: a FakeClock
  // legitimately reads 0 at the first failed probe.
  if (slot->obs.consecutive_failures == 1) {
    slot->obs.first_failure_nanos = slot->last_probe_nanos;
  }
  if (slot->obs.state != Liveness::kDead &&
      slot->obs.consecutive_failures >= config_.dead_after) {
    slot->obs.state = Liveness::kDead;
    slot->obs.declared_dead_nanos = slot->last_probe_nanos;
    slot->obs.last_time_to_detect_seconds =
        static_cast<double>(slot->last_probe_nanos -
                            slot->obs.first_failure_nanos) *
        1e-9;
    ++slot->obs.deaths_declared;
    ++total_deaths_declared_;
  } else if (slot->obs.state == Liveness::kAlive &&
             slot->obs.consecutive_failures >= config_.suspect_after) {
    slot->obs.state = Liveness::kSuspect;
  }
  return slot->obs.state;
}

Liveness FailureDetector::StateOf(ShardId shard) const {
  const Slot* slot = FindSlot(shard);
  return slot == nullptr ? Liveness::kAlive : slot->obs.state;
}

void FailureDetector::Forget(ShardId shard) {
  Slot* slot = EnsureSlot(shard);
  size_t deaths = slot->obs.deaths_declared;
  size_t probes = slot->obs.probes;
  *slot = Slot{};
  // Lifetime counters survive the reset; only streak state clears.
  slot->obs.deaths_declared = deaths;
  slot->obs.probes = probes;
}

FailureDetector::ShardObservation FailureDetector::observation(
    ShardId shard) const {
  const Slot* slot = FindSlot(shard);
  return slot == nullptr ? ShardObservation{} : slot->obs;
}

}  // namespace semitri::shard
