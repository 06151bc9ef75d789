#ifndef SEMITRI_SHARD_FAILURE_DETECTOR_H_
#define SEMITRI_SHARD_FAILURE_DETECTOR_H_

// Per-shard liveness detection for the self-healing cluster. The
// detector is a pure accumulator: ShardCluster::Tick() probes each
// runtime slot (a probe is a cheap "is the runtime present and its
// manager responsive" check, not an RPC) and feeds the result in via
// Observe(); consecutive failures walk the shard through
// kAlive -> kSuspect -> kDead. Crossing dead_after is the failover
// trigger — the cluster promotes the standby and calls Forget() so the
// replacement starts with a clean streak.
//
// Two thresholds instead of one keep the router honest about the
// difference between "might be slow" (suspect: health turns degraded,
// traffic keeps flowing) and "declared dead" (failover fences the
// runtime). Time-to-detect — first failed probe to death declaration —
// is recorded per declaration so the soak bench can report percentiles.
//
// Probes are paced by probe_interval_seconds on the injected Clock, so
// a FakeClock test advances time to schedule the next probe and the
// whole detect->failover window is deterministic.
//
// Fault site (SEMITRI_FAULT_INJECTION=ON): `detector_probe` — an
// injected fault flips a successful probe to failed, which is how the
// false-positive-failover tests drive a *live* shard through death
// declaration without killing it.
//
// Not internally synchronized: the owning ShardCluster calls it under
// the cluster lock.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "shard/ring.h"

namespace semitri::shard {

enum class Liveness { kAlive, kSuspect, kDead };

struct FailureDetectorConfig {
  // Minimum spacing between probes of one shard; 0 probes every tick.
  double probe_interval_seconds = 0.5;
  // Consecutive probe failures before kSuspect / kDead.
  size_t suspect_after = 1;
  size_t dead_after = 3;
};

class FailureDetector {
 public:
  explicit FailureDetector(FailureDetectorConfig config,
                           const common::Clock* clock = nullptr);

  // True when probe_interval has elapsed since the shard's last
  // recorded probe (always true for a never-probed shard).
  bool ProbeDue(ShardId shard) const;

  // Records one probe result (fires `detector_probe`, which may flip
  // probe_ok to false) and returns the state after. The kSuspect ->
  // kDead transition is edge-triggered: DeathsDeclared() counts them
  // and the caller reads the transition off the return value.
  Liveness Observe(ShardId shard, bool probe_ok);

  Liveness StateOf(ShardId shard) const;

  // Clears the shard's streak and state (after failover or restart the
  // replacement runtime starts alive).
  void Forget(ShardId shard);

  struct ShardObservation {
    Liveness state = Liveness::kAlive;
    size_t consecutive_failures = 0;
    size_t probes = 0;
    size_t deaths_declared = 0;
    // Clock timestamps (nanos) of the current streak's first failure
    // and of the last death declaration; 0 when not applicable.
    int64_t first_failure_nanos = 0;
    int64_t declared_dead_nanos = 0;
    // First failed probe -> death declaration, for the most recent
    // declaration; the cluster folds these into time-to-detect stats.
    double last_time_to_detect_seconds = 0.0;
  };
  ShardObservation observation(ShardId shard) const;

  size_t deaths_declared() const { return total_deaths_declared_; }
  const FailureDetectorConfig& config() const { return config_; }

 private:
  struct Slot {
    ShardObservation obs;
    int64_t last_probe_nanos = 0;
    bool probed = false;
  };

  const Slot* FindSlot(ShardId shard) const;
  Slot* EnsureSlot(ShardId shard);

  FailureDetectorConfig config_;
  const common::Clock* clock_;  // never null after construction
  std::vector<Slot> slots_;     // indexed by ShardId, grown on demand
  size_t total_deaths_declared_ = 0;
};

}  // namespace semitri::shard

#endif  // SEMITRI_SHARD_FAILURE_DETECTOR_H_
