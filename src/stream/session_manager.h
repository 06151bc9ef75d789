#ifndef SEMITRI_STREAM_SESSION_MANAGER_H_
#define SEMITRI_STREAM_SESSION_MANAGER_H_

// Thread-safe multi-object front end over stream::AnnotationSession:
// one live session per ObjectId, sharded so concurrent feeders of
// different objects rarely contend. All shared state is mutex-guarded
// and annotated for Clang's -Wthread-safety analysis; the pipeline's
// store and profiler sinks are internally synchronized, so a single
// SessionManager over a single pipeline is safe to hammer from many
// ingestion threads.
//
// Per-session memory is bounded by
// SessionConfig::max_buffered_points; idle sessions can be finalized
// and evicted (EvictIdle), and Flush()/Close() finalize the dangling
// open trajectory on demand.
//
// --- overload & admission control ------------------------------------
//
// AdmissionConfig adds *global* budgets on top of the per-session
// bounds: max live sessions, max buffered fixes across every open
// trajectory, and an approximate byte ceiling derived from both. When
// admitting a new session or fix would exceed a budget, the configured
// OverloadPolicy decides what happens:
//
//   * kRejectNew       — fail fast with Status::ResourceExhausted;
//   * kShedOldestIdle  — evict the globally least-recently-fed session
//                        (through the flushing Close path, so shedding
//                        never loses durably-written rows) until the
//                        budget fits, then admit.
//
// Every shed / reject decision is counted in stats() and surfaced via
// Health().
//
// The "least-recently-fed" order is maintained in a global min-heap of
// last-activity ticks with lazy invalidation (at most one heap entry
// per live session), so shedding and EvictIdle cost O(log n) per
// eviction instead of scanning every shard.
//
// Correctness contract (enforced by tests/stream_test.cc and the fuzz
// harness): feeding each object's stream in order — from any thread
// interleaving across objects — then CloseAll() leaves the store
// bit-identical to running the offline
// SemiTriPipeline::ProcessStream(object_id, stream, first_id) per
// object, with first_id = object_id * ids_per_object (the offline
// ProcessStream id-block convention). Admission budgets shrink
// *which* fixes are accepted under overload, never the handling of the
// accepted ones.

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/health.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "stream/annotation_session.h"

namespace semitri::stream {

// What Feed does when admitting more work would exceed a global budget.
enum class OverloadPolicy {
  kRejectNew = 0,
  kShedOldestIdle,
};

struct AdmissionConfig {
  // Global budgets; 0 = unbounded.
  size_t max_sessions = 0;
  // Total raw fixes buffered across every open trajectory.
  size_t max_buffered_fixes = 0;
  // Approximate bytes: buffered fixes * sizeof(GpsPoint) plus a fixed
  // per-session overhead (see kSessionOverheadBytes).
  size_t max_buffered_bytes = 0;

  OverloadPolicy overload_policy = OverloadPolicy::kRejectNew;
};

struct SessionManagerConfig {
  SessionConfig session;
  // Lock shards; feeds for objects on different shards proceed in
  // parallel.
  size_t num_shards = 16;
  // Trajectory-id block reserved per object (ids start at
  // object_id * ids_per_object), the offline ProcessStream convention.
  core::TrajectoryId ids_per_object = 1000;
  // Global overload budgets & policies (default: everything unbounded).
  AdmissionConfig admission;
  // Filesystem for Checkpoint()/Restore(); null = the real filesystem.
  // Tests pass a common::FaultFs to inject disk faults.
  common::Env* env = nullptr;
};

class SessionManager {
 public:
  // Fixed per-session overhead charged against max_buffered_bytes in
  // addition to the buffered fixes themselves (detector windows,
  // cleaned prefix bookkeeping, map nodes).
  static constexpr size_t kSessionOverheadBytes = 512;

  // `pipeline` must outlive the manager. `clock` drives idle ticks
  // (null = real clock; tests inject common::FakeClock).
  SessionManager(const core::SemiTriPipeline* pipeline,
                 SessionManagerConfig config = {},
                 const common::Clock* clock = nullptr);

  // Feeds one fix to `object_id`'s session, creating it on first use.
  // Feeds for the same object must be time-ordered (out-of-order fixes
  // are rejected in the FeedResult); different objects are independent.
  // Under overload returns ResourceExhausted (rejected, or nothing left
  // to shed).
  [[nodiscard]] common::Result<AnnotationSession::FeedResult> Feed(
      core::ObjectId object_id, const core::GpsPoint& fix);

  // Finalizes the object's dangling open trajectory; the session stays
  // live. NotFound when no session exists.
  [[nodiscard]] common::Status Flush(core::ObjectId object_id);

  // Flush + evict the session (its detector/annotation counters are
  // folded into stats()). NotFound when no session exists.
  [[nodiscard]] common::Status Close(core::ObjectId object_id);

  // Closes every session (stream end). Keeps going on stage errors and
  // returns the first one.
  [[nodiscard]] common::Status CloseAll();

  // Closes sessions that have not been fed for at least
  // `max_idle_seconds`; returns how many were evicted. Driven by the
  // global activity heap — cost is O(log n) per evicted session, not a
  // scan of every shard. Keeps going on stage errors and returns the
  // first one.
  [[nodiscard]] common::Result<size_t> EvictIdle(double max_idle_seconds);

  size_t ActiveSessions() const;

  // True when a live (unretired) session exists for the object.
  bool HasLiveSession(core::ObjectId object_id) const;

  struct Stats {
    size_t active_sessions = 0;
    size_t sessions_opened = 0;
    size_t sessions_evicted = 0;
    // Evictions whose final Flush failed while the session still held
    // an unfinished trajectory: its un-finalized rows are gone. Every
    // other eviction goes through the flushing Close path losslessly.
    size_t evictions_with_data_loss = 0;
    size_t points_fed = 0;
    size_t points_rejected = 0;
    size_t episodes_closed = 0;
    size_t trajectories_closed = 0;
    size_t trajectories_discarded = 0;
    size_t forced_splits = 0;
    size_t annotation_passes = 0;
    // --- overload decisions -------------------------------------------
    // Raw fixes currently buffered across all open trajectories.
    size_t buffered_fixes = 0;
    // Sessions evicted by kShedOldestIdle to make room.
    size_t sessions_shed = 0;
    // New sessions turned away (budget + kRejectNew, or a failed shed).
    size_t admission_rejected_sessions = 0;
    // Fixes to *existing* sessions turned away by the global budgets.
    size_t overload_rejected_fixes = 0;
    // --- checkpoint restore (re-adoption after restart/failover) ------
    // What the most recent Restore() rebuilt: live sessions resumed
    // mid-stream, and idle objects whose trajectory-id cursors came
    // back (both reject already-consumed re-fed fixes per-fix). Zero
    // until a Restore runs.
    size_t sessions_restored = 0;
    size_t resume_cursors_restored = 0;
  };
  // Aggregated over live and evicted sessions.
  Stats stats() const;

  // One-call operator view: per-stage latency from the pipeline plus
  // this manager's budget gauges and overload counters.
  core::HealthSnapshot Health() const;

  // --- checkpoint / restore -------------------------------------------

  // Serializes every live session, the retired counters and the
  // resume cursors of retired objects into a file holding one
  // kSessionCheckpoint WAL frame (store/wal.h), written to `path`.tmp,
  // fsynced, then renamed — a crash leaves either the previous
  // checkpoint or the new one, never a torn file. Callers must quiesce feeders for a cross-object-consistent
  // snapshot; each shard is locked while serialized.
  [[nodiscard]] common::Status Checkpoint(const std::string& path) const;

  // Rebuilds live sessions from a Checkpoint file, replacing current
  // state (budget accounting and the activity heap are rebuilt to match
  // the restored sessions). The manager must wrap the same pipeline and
  // configuration that produced the checkpoint. Restored sessions
  // resume mid-stream: feeding the remaining fixes and closing
  // converges the store to the exact state an uninterrupted run would
  // have produced. IoError when the file cannot be read; Corruption
  // unless it holds exactly one intact kSessionCheckpoint frame with
  // well-formed state.
  [[nodiscard]] common::Status Restore(const std::string& path);

  // --- live migration hooks (shard::ShardCluster) ----------------------

  // Serializes `object_id`'s state for a migration handoff: the live
  // session mid-stream (open trajectory included) when one exists,
  // otherwise just the trajectory-id resume cursor a previous
  // eviction/close left behind. The session is NOT removed or flushed
  // here — the source drains afterwards through the flushing Close(),
  // whose truncated rows the destination's completed trajectory
  // overwrites at merge time (keyed-overwrite store semantics). The
  // caller must quiesce feeds for the object from pack to handoff.
  // NotFound when the manager knows nothing about the object.
  [[nodiscard]] common::Status PackSession(core::ObjectId object_id,
                                           common::StateWriter* out) const;

  // Installs state packed by PackSession on another manager: the
  // session resumes mid-stream exactly where the source stopped
  // (trajectory ids continue, the open trajectory keeps buffering).
  // Budgets are charged unconditionally — migration admission is the
  // router's decision, not this manager's. AlreadyExists when the
  // object already has a live session here (state unchanged);
  // Corruption when the bytes are not a pack of `object_id`.
  [[nodiscard]] common::Status AdoptSession(core::ObjectId object_id,
                                            common::StateReader* in);

 private:
  // Global least-recently-fed index: a min-heap of (tick, object) with
  // lazy invalidation. Invariant: at most one heap entry per tracked
  // object (stale entries are re-pushed with the latest tick when
  // popped), so the heap never outgrows the live-session count plus
  // transient pops. Internally locked; never calls back into shards.
  class ActivityTracker {
   public:
    // Records activity at `tick` (monotonic nanos). Inserts the object
    // if unknown.
    void Touch(core::ObjectId id, int64_t tick) SEMITRI_EXCLUDES(mutex_);
    // Forgets the object (its heap entry dies lazily).
    void Remove(core::ObjectId id) SEMITRI_EXCLUDES(mutex_);
    // Claims and returns the least-recently-active object (and its
    // tick); the object is forgotten — the caller re-Touches it if the
    // claim is not acted upon. With `cutoff`, only returns objects
    // whose last activity is <= cutoff. nullopt when empty / none idle.
    std::optional<std::pair<core::ObjectId, int64_t>> PopOldest(
        int64_t cutoff = std::numeric_limits<int64_t>::max())
        SEMITRI_EXCLUDES(mutex_);
    void Clear() SEMITRI_EXCLUDES(mutex_);

   private:
    struct HeapEntry {
      int64_t tick;
      core::ObjectId id;
      bool operator>(const HeapEntry& o) const {
        return tick != o.tick ? tick > o.tick : id > o.id;
      }
    };
    mutable std::mutex mutex_;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap_ SEMITRI_GUARDED_BY(mutex_);
    // Latest observed tick per live object (authoritative).
    std::unordered_map<core::ObjectId, int64_t> latest_
        SEMITRI_GUARDED_BY(mutex_);
  };

  struct Entry {
    std::unique_ptr<AnnotationSession> session;
    int64_t last_feed_nanos = 0;
    // Buffered fixes this session is currently charged for against the
    // global budget.
    size_t charged_fixes = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<core::ObjectId, Entry> sessions SEMITRI_GUARDED_BY(mutex);
    // Counters carried over from evicted sessions so stats() survives
    // eviction.
    size_t opened SEMITRI_GUARDED_BY(mutex) = 0;
    size_t evicted SEMITRI_GUARDED_BY(mutex) = 0;
    size_t evicted_with_data_loss SEMITRI_GUARDED_BY(mutex) = 0;
    AnnotationSession::Stats retired SEMITRI_GUARDED_BY(mutex) = {};
    // Next trajectory id for objects whose session was retired
    // (eviction / Close / shed): a reconnecting object must keep
    // ascending through its id block, or the fresh session would
    // restart at object_id * ids_per_object and overwrite the durable
    // rows its predecessor already finalized.
    std::map<core::ObjectId, core::TrajectoryId> resume_ids
        SEMITRI_GUARDED_BY(mutex);
  };

  Shard& ShardFor(core::ObjectId object_id) const;
  // Flushes `entry`'s session, folds its counters into the shard,
  // releases its budget charges, and removes it. Returns the flush
  // status.
  [[nodiscard]] common::Status RetireLocked(Shard& shard,
                              std::map<core::ObjectId, Entry>::iterator it)
      SEMITRI_REQUIRES(shard.mutex);

  // Approximate resident bytes for the given budget usage.
  size_t ApproxBytes(size_t fixes, size_t sessions) const {
    return fixes * sizeof(core::GpsPoint) +
           sessions * kSessionOverheadBytes;
  }
  // True while any configured budget is exceeded by current usage.
  bool OverBudget() const;
  // Applies the overload policy until the budgets fit (shedding spares
  // `exclude`). OK = admitted; ResourceExhausted = give up (the caller
  // rolls its optimistic claims back).
  [[nodiscard]] common::Status ResolveOverload(core::ObjectId exclude);
  // Evicts the least-recently-fed session other than `exclude`; false
  // when no candidate exists.
  bool ShedOldestIdle(core::ObjectId exclude);

  const core::SemiTriPipeline* pipeline_;
  SessionManagerConfig config_;
  common::Env* const env_;  // resolved from config_.env, never null
  const common::Clock* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ActivityTracker activity_;

  // Global budget usage (claim-then-rollback accounting: Feed claims
  // optimistically with fetch_add, reconciles to the true delta after
  // the session consumed the fix, and rolls back on rejection).
  std::atomic<size_t> live_sessions_{0};
  std::atomic<int64_t> buffered_fixes_{0};
  // What the most recent Restore() rebuilt (see Stats).
  std::atomic<size_t> sessions_restored_{0};
  std::atomic<size_t> resume_cursors_restored_{0};

  // Overload decision counters (monotonic).
  std::atomic<size_t> sessions_shed_{0};
  std::atomic<size_t> admission_rejected_sessions_{0};
  std::atomic<size_t> overload_rejected_fixes_{0};
};

}  // namespace semitri::stream

#endif  // SEMITRI_STREAM_SESSION_MANAGER_H_
