#ifndef SEMITRI_CORE_HEALTH_H_
#define SEMITRI_CORE_HEALTH_H_

// Operator-facing view of a pipeline, manager or cluster: per-stage
// latency digests, plus (when produced by stream::SessionManager::Health)
// the session and buffered-fix budgets and the shed/reject counters, and
// (for a cluster) per-shard liveness, buffered fixes, failover, storage
// and scrub state. One snapshot answers "is the system degrading, and
// where" — the signal an overload-aware load balancer or an on-call
// human needs.

#include <cstddef>
#include <string>
#include <vector>

#include "analytics/latency_profiler.h"

namespace semitri::core {

// Utilization of one bounded resource; limit 0 means unbounded.
struct BudgetGauge {
  size_t used = 0;
  size_t limit = 0;

  // In [0, 1]; 0 when unbounded.
  double utilization() const {
    return limit == 0 ? 0.0
                      : static_cast<double>(used) / static_cast<double>(limit);
  }
};

struct StageHealth {
  std::string stage;
  // p50/p99 etc. from the pipeline's LatencyProfiler (zeros without one).
  analytics::LatencyProfiler::StageSummary latency;
};

// One shard's contribution to a cluster-level snapshot (filled by
// shard::ShardRuntime::Health / shard::ShardCluster::Health).
struct ShardHealth {
  size_t shard_id = 0;
  // False after a kill and before the replacement runtime recovers.
  bool alive = true;
  size_t live_sessions = 0;
  size_t buffered_fixes = 0;
  // Sealed WAL segments (and their bytes) not yet shipped to the
  // standby directory — the replication lag a failover would lose.
  size_t wal_ship_lag_segments = 0;
  size_t wal_ship_lag_bytes = 0;
  // Failure-detector view (filled by shard::ShardCluster::Health when
  // a detector is running): the shard has missed enough consecutive
  // probes to be suspect but not yet enough to be declared dead.
  bool suspect = false;
  size_t consecutive_probe_failures = 0;
  // How many times this shard slot has been promoted onto its standby
  // (0 = still serving from its original durable directory).
  size_t failover_epoch = 0;
  // The shard's own snapshot reported degraded().
  bool degraded = false;
  // The shard's store refused writes after a disk fault (read-only
  // degraded mode) — `storage_fault` carries the triggering failure.
  bool storage_degraded = false;
  std::string storage_fault;
  // Integrity-scrubber counters (store/integrity_scrubber.h); zeros
  // when the shard runs without a scrubber.
  size_t scrub_files_scanned = 0;
  size_t scrub_corrupt_detected = 0;
  size_t scrub_repaired = 0;
  size_t scrub_quarantined = 0;
  size_t scrub_cycles_completed = 0;
};

struct HealthSnapshot {
  // One entry per stage, in execution order.
  std::vector<StageHealth> stages;

  // Per-shard rollup (cluster-level snapshots only; empty for a single
  // pipeline or manager).
  std::vector<ShardHealth> shards;

  // Admission budgets (filled by stream::SessionManager::Health; zeros
  // for a bare pipeline snapshot).
  BudgetGauge sessions;
  BudgetGauge buffered_fixes;

  // Overload decisions since construction.
  size_t sessions_shed = 0;
  size_t admission_rejected_sessions = 0;
  size_t overload_rejected_fixes = 0;
  size_t evictions_with_data_loss = 0;

  // Self-healing counters (cluster-level snapshots only): standby
  // promotions and the retrying router's recovery ledger.
  size_t failovers_completed = 0;
  size_t failovers_aborted = 0;
  size_t feeds_retried = 0;
  size_t feeds_recovered = 0;

  // Storage-fault view (filled by shard::ShardRuntime::Health): the
  // backing store entered read-only degraded mode after a disk fault,
  // and `storage_fault` names the failure that tripped it.
  bool storage_degraded = false;
  std::string storage_fault;
  // Aggregate integrity-scrubber counters across the snapshot's scope
  // (one shard for a runtime snapshot, all live shards for a cluster).
  size_t scrub_files_scanned = 0;
  size_t scrub_corrupt_detected = 0;
  size_t scrub_repaired = 0;
  size_t scrub_quarantined = 0;
  size_t scrub_cycles_completed = 0;

  // True when any budget is >= 90% utilized, storage is in read-only
  // degraded mode, a scrub quarantined a file it could not repair, or
  // any shard in the rollup is dead, suspect, or degraded — the cheap
  // "should I stop sending traffic here" bit.
  bool degraded() const;

  // Multi-line human-readable rendering.
  std::string ToString() const;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_HEALTH_H_
