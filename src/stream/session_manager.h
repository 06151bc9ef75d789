#ifndef SEMITRI_STREAM_SESSION_MANAGER_H_
#define SEMITRI_STREAM_SESSION_MANAGER_H_

// Thread-safe multi-object front end over stream::AnnotationSession:
// one live session per ObjectId behind one mutex. Every call takes that
// lock for its whole duration, so feeders of one manager take turns;
// the unit of parallel feeding is the manager, which is why each
// shard::ShardCluster shard owns its own. The lock-guarded state is
// annotated for Clang's -Wthread-safety analysis; the pipeline's store
// and profiler sinks are internally synchronized.
//
// Per-session memory is bounded by
// SessionConfig::max_buffered_points; idle sessions can be finalized
// and evicted (EvictIdle), and Flush()/Close() finalize the dangling
// open trajectory on demand.
//
// --- overload & admission control ------------------------------------
//
// AdmissionConfig adds *global* budgets on top of the per-session
// bounds: max live sessions and max buffered fixes across every open
// trajectory. When admitting a fix (and, for a new object, its
// session) would exceed a budget, Feed sheds the least-recently-fed
// other session — through the flushing Close path, so shedding never
// loses durably-written rows — until the budget fits, and returns
// ResourceExhausted when no other session is left to shed. Live
// sessions sit in a list in least-recently-fed order (each entry
// holds its own node), so a feed moves its session to the back in
// O(1) and shedding and EvictIdle pop from the front.
//
// Every shed / reject decision is counted in stats() and surfaced via
// Health().
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

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/env.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/health.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "stream/annotation_session.h"

namespace semitri::stream {

struct AdmissionConfig {
  // Global budgets; 0 = unbounded.
  size_t max_sessions = 0;
  // Total raw fixes buffered across every open trajectory.
  size_t max_buffered_fixes = 0;
};

struct SessionManagerConfig {
  SessionConfig session;
  // Trajectory-id block reserved per object (ids start at
  // object_id * ids_per_object), the offline ProcessStream convention.
  core::TrajectoryId ids_per_object = 1000;
  // Global overload budgets (default: everything unbounded).
  AdmissionConfig admission;
  // Filesystem for Checkpoint()/Restore(); null = the real filesystem.
  // Tests pass a common::FaultFs to inject disk faults.
  common::Env* env = nullptr;
};

class SessionManager {
 public:
  // `pipeline` must outlive the manager. `clock` drives idle ticks
  // (null = real clock; tests inject common::FakeClock).
  SessionManager(const core::SemiTriPipeline* pipeline,
                 SessionManagerConfig config = {},
                 const common::Clock* clock = nullptr);

  // Feeds one fix to `object_id`'s session, creating it on first use.
  // Feeds for the same object must be time-ordered (out-of-order fixes
  // are rejected in the FeedResult); different objects are independent.
  // Over budget with no other session left to shed, returns
  // ResourceExhausted.
  [[nodiscard]] common::Result<AnnotationSession::FeedResult> Feed(
      core::ObjectId object_id, const core::GpsPoint& fix)
      SEMITRI_EXCLUDES(mutex_);

  // Finalizes the object's dangling open trajectory; the session stays
  // live. NotFound when no session exists.
  [[nodiscard]] common::Status Flush(core::ObjectId object_id)
      SEMITRI_EXCLUDES(mutex_);

  // Flush + evict the session (its detector/annotation counters are
  // folded into stats()). NotFound when no session exists.
  [[nodiscard]] common::Status Close(core::ObjectId object_id)
      SEMITRI_EXCLUDES(mutex_);

  // Closes every session (stream end). Keeps going on stage errors and
  // returns the first one.
  [[nodiscard]] common::Status CloseAll() SEMITRI_EXCLUDES(mutex_);

  // Closes sessions that have not been fed for at least
  // `max_idle_seconds`; returns how many were evicted. Walks the
  // least-recently-fed list from the front, so it costs O(1) per
  // evicted session plus one look at the first fresh one. Keeps going
  // on stage errors and returns the first one.
  [[nodiscard]] common::Result<size_t> EvictIdle(double max_idle_seconds)
      SEMITRI_EXCLUDES(mutex_);

  size_t ActiveSessions() const SEMITRI_EXCLUDES(mutex_);

  // True when a live (unretired) session exists for the object.
  bool HasLiveSession(core::ObjectId object_id) const
      SEMITRI_EXCLUDES(mutex_);

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
    // Sessions shed to make room under a budget.
    size_t sessions_shed = 0;
    // New sessions turned away (over budget, nothing left to shed).
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
  Stats stats() const SEMITRI_EXCLUDES(mutex_);

  // One-call operator view: per-stage latency from the pipeline plus
  // this manager's budget gauges and overload counters.
  core::HealthSnapshot Health() const SEMITRI_EXCLUDES(mutex_);

  // --- checkpoint / restore -------------------------------------------

  // Serializes every live session, the retired counters and the
  // resume cursors of retired objects into a file holding one
  // kSessionCheckpoint WAL frame (store/wal.h), written to `path`.tmp,
  // fsynced, then renamed — a crash leaves either the previous
  // checkpoint or the new one, never a torn file. The state is
  // serialized under the lock, so the snapshot is consistent across
  // objects; the file is written after the lock is released.
  [[nodiscard]] common::Status Checkpoint(const std::string& path) const
      SEMITRI_EXCLUDES(mutex_);

  // Rebuilds live sessions from a Checkpoint file, replacing current
  // state (budget accounting and the least-recently-fed order are
  // rebuilt to match the restored sessions). The manager must wrap the
  // same pipeline and configuration that produced the checkpoint.
  // Restored sessions resume mid-stream: feeding the remaining fixes
  // and closing converges the store to the exact state an
  // uninterrupted run would have produced. All or nothing: the whole
  // file is parsed before anything is replaced, so on any error the
  // manager is unchanged. IoError when the file cannot be read;
  // Corruption unless it holds exactly one intact kSessionCheckpoint
  // frame with well-formed state.
  [[nodiscard]] common::Status Restore(const std::string& path)
      SEMITRI_EXCLUDES(mutex_);

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
                                           common::StateWriter* out) const
      SEMITRI_EXCLUDES(mutex_);

  // Installs state packed by PackSession on another manager: the
  // session resumes mid-stream exactly where the source stopped
  // (trajectory ids continue, the open trajectory keeps buffering).
  // Budgets are charged unconditionally — migration admission is the
  // router's decision, not this manager's. AlreadyExists when the
  // object already has a live session here (state unchanged);
  // Corruption when the bytes are not a pack of `object_id`.
  [[nodiscard]] common::Status AdoptSession(core::ObjectId object_id,
                                            common::StateReader* in)
      SEMITRI_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::unique_ptr<AnnotationSession> session;
    int64_t last_feed_nanos = 0;
    // Buffered fixes this session is currently charged for against the
    // global budget.
    size_t charged_fixes = 0;
    // This session's node in lru_.
    std::list<core::ObjectId>::iterator lru;
  };
  using Sessions = std::map<core::ObjectId, Entry>;

  // Adds `session` as a live entry fed at `now`, at the back of the
  // least-recently-fed order, charged for its buffered fixes.
  Sessions::iterator InstallLocked(core::ObjectId object_id,
                                   std::unique_ptr<AnnotationSession> session,
                                   int64_t now) SEMITRI_REQUIRES(mutex_);
  // Re-charges `entry` for its session's current buffered fixes.
  void RechargeLocked(Entry& entry) SEMITRI_REQUIRES(mutex_);
  // Flushes the session, folds its counters into the retired totals,
  // records its resume cursor, releases its budget charges and removes
  // it. Returns the flush status.
  [[nodiscard]] common::Status RetireLocked(Sessions::iterator it)
      SEMITRI_REQUIRES(mutex_);
  // Sheds least-recently-fed sessions other than `object_id` until one
  // more fix (and, when `new_session`, one more session) fits every
  // budget. ResourceExhausted, counted, when nothing is left to shed.
  [[nodiscard]] common::Status AdmitLocked(core::ObjectId object_id,
                                           bool new_session)
      SEMITRI_REQUIRES(mutex_);

  const core::SemiTriPipeline* const pipeline_;
  const SessionManagerConfig config_;
  common::Env* const env_;  // resolved from config_.env, never null
  const common::Clock* const clock_;

  mutable std::mutex mutex_;
  Sessions sessions_ SEMITRI_GUARDED_BY(mutex_);
  // Live objects, least recently fed first.
  std::list<core::ObjectId> lru_ SEMITRI_GUARDED_BY(mutex_);
  // Next trajectory id for objects whose session was retired
  // (eviction / Close / shed): a reconnecting object must keep
  // ascending through its id block, or the fresh session would
  // restart at object_id * ids_per_object and overwrite the durable
  // rows its predecessor already finalized.
  std::map<core::ObjectId, core::TrajectoryId> resume_ids_
      SEMITRI_GUARDED_BY(mutex_);
  // Sum of every entry's charged_fixes.
  size_t buffered_fixes_ SEMITRI_GUARDED_BY(mutex_) = 0;
  // Counters carried over from retired sessions so stats() survives
  // eviction.
  size_t opened_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t evicted_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t evicted_with_data_loss_ SEMITRI_GUARDED_BY(mutex_) = 0;
  AnnotationSession::Stats retired_ SEMITRI_GUARDED_BY(mutex_) = {};
  // Overload decisions (monotonic).
  size_t sessions_shed_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t admission_rejected_sessions_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t overload_rejected_fixes_ SEMITRI_GUARDED_BY(mutex_) = 0;
  // What the most recent Restore() rebuilt (see Stats).
  size_t sessions_restored_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t resume_cursors_restored_ SEMITRI_GUARDED_BY(mutex_) = 0;
};

}  // namespace semitri::stream

#endif  // SEMITRI_STREAM_SESSION_MANAGER_H_
