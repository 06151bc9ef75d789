#ifndef SEMITRI_STORE_SEMANTIC_TRAJECTORY_STORE_H_
#define SEMITRI_STORE_SEMANTIC_TRAJECTORY_STORE_H_

// The Semantic Trajectory Store (paper §3.3/§5.1): dedicated tables for
// GPS records, trajectories, stop/move episodes, and semantic
// annotations. The paper backs it with PostgreSQL/PostGIS; here the
// tables are in-memory columns with a CSV export (SaveCsv).
//
// Crash-safe durable mode: with StoreConfig::durable_dir set, every Put
// is framed into a write-ahead log (store/wal.h) *before* the in-memory
// tables change, Sync() makes the log durable, and Checkpoint()
// atomically compacts it into a binary snapshot: one file of the WAL's
// own full-put records, one per stored entry, published by a
// LevelDB-style CURRENT pointer flip (the log is then emptied). The
// store thus keeps one on-disk record format; with sync_every_put it
// commits every write as the paper's PostgreSQL inserts did, which is
// the store bench_fig17_latency measures. Recover() re-opens a
// directory after a crash: it replays the current snapshot, the sealed
// segments written after it and the log, truncates a torn tail, and
// leaves the in-memory tables bit-identical (ContentEquals) to the
// pre-crash state.
//
// Sequence numbers: sealed segments (`wal-<n>.log`) and snapshots
// (`snapshot-<n>.log`) draw from one counter that never repeats a
// number within a directory, so a snapshot sorts after every segment
// it holds and before every later one.
//
// Append records: live sessions write only what is new. Append* calls
// log and apply rows [start, size) of their argument together with
// `start`; applying one truncates the stored entry to `start` rows and
// appends the rest. Replay therefore converges even over a checkpoint
// that already holds the rows (a crash between the CURRENT flip and
// the log truncation), and a start past the stored length — a gap no
// valid write sequence produces, unless a later full put in the same
// log rewrote the entry — is Corruption.
//
// Thread-safe: every table access serializes on an internal mutex, so
// the "store writes are serial" contract is enforced by the store itself
// (and, on Clang builds, by -Wthread-safety over the annotations below)
// rather than by caller discipline.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/types.h"
#include "store/wal.h"

namespace semitri::store {

struct StoreConfig {
  // Filesystem to run all file I/O through; null means the real
  // filesystem (common::Env::Default()). Tests inject a
  // common::FaultFs here to exercise ENOSPC/EIO/fsync-failure paths.
  common::Env* env = nullptr;

  // When nonempty, enables the crash-safe durable mode described above:
  // Put* calls append to `<durable_dir>/wal.log` before touching the
  // in-memory tables. Re-opening an existing directory must go through
  // Recover() (which truncates a torn tail before appending resumes).
  std::string durable_dir;

  // fsync the WAL after every Put (slow but loses nothing). When false,
  // durability is bounded by explicit Sync()/Checkpoint() calls; a
  // crash between syncs can lose OS-buffered records but never tears
  // the log irrecoverably.
  bool sync_every_put = false;
};

class SemanticTrajectoryStore {
 public:
  explicit SemanticTrajectoryStore(StoreConfig config = {});

  // --- writes ---------------------------------------------------------

  // Stores a raw trajectory (GPS-record and trajectory tables).
  // Overwrites an existing trajectory with the same id.
  [[nodiscard]] common::Status PutRawTrajectory(const core::RawTrajectory& trajectory)
      SEMITRI_EXCLUDES(mutex_);

  // Stores the stop/move segmentation of a trajectory.
  [[nodiscard]] common::Status PutEpisodes(core::TrajectoryId id,
                             const std::vector<core::Episode>& episodes)
      SEMITRI_EXCLUDES(mutex_);

  // Stores one layer's interpretation (keyed by its `interpretation`
  // name: "region", "line", "point").
  [[nodiscard]] common::Status PutInterpretation(
      const core::StructuredSemanticTrajectory& trajectory)
      SEMITRI_EXCLUDES(mutex_);

  // --- append writes (live sessions) ----------------------------------
  //
  // Each writes rows [start, size) of its argument: the stored entry is
  // truncated to its first `start` rows and the new rows are appended
  // (an absent entry counts as zero rows, so start 0 creates it). The
  // WAL logs only the new rows plus `start`. FailedPrecondition, with
  // nothing logged, when `start` exceeds the stored row count;
  // InvalidArgument when it exceeds the argument's.

  [[nodiscard]] common::Status AppendRawPoints(
      const core::RawTrajectory& trajectory, size_t start)
      SEMITRI_EXCLUDES(mutex_);
  [[nodiscard]] common::Status AppendEpisodes(
      core::TrajectoryId id, const std::vector<core::Episode>& episodes,
      size_t start) SEMITRI_EXCLUDES(mutex_);
  [[nodiscard]] common::Status AppendInterpretation(
      const core::StructuredSemanticTrajectory& trajectory, size_t start)
      SEMITRI_EXCLUDES(mutex_);

  // --- reads ----------------------------------------------------------

  [[nodiscard]] common::Result<core::RawTrajectory> GetRawTrajectory(
      core::TrajectoryId id) const SEMITRI_EXCLUDES(mutex_);
  [[nodiscard]] common::Result<std::vector<core::Episode>> GetEpisodes(
      core::TrajectoryId id) const SEMITRI_EXCLUDES(mutex_);
  [[nodiscard]] common::Result<core::StructuredSemanticTrajectory> GetInterpretation(
      core::TrajectoryId id, const std::string& interpretation) const
      SEMITRI_EXCLUDES(mutex_);

  std::vector<core::TrajectoryId> ListTrajectories() const
      SEMITRI_EXCLUDES(mutex_);

  // Interpretation names stored for a trajectory ("region", "line", ...).
  std::vector<std::string> ListInterpretations(core::TrajectoryId id) const
      SEMITRI_EXCLUDES(mutex_);

  // Element-wise equality of the in-memory tables (raw trajectories,
  // episodes, interpretations) of two stores. This is how the
  // streaming/offline equivalence contract is checked: a store fed by
  // stream::SessionManager must ContentEquals one fed by the offline
  // pipeline — and a store rebuilt by Recover() must ContentEquals the
  // pre-crash one. Locks both stores (in address order; analysis
  // suppressed because the two-instance locking order is inexpressible).
  bool ContentEquals(const SemanticTrajectoryStore& other) const
      SEMITRI_NO_THREAD_SAFETY_ANALYSIS;

  // --- stats ----------------------------------------------------------

  size_t num_trajectories() const SEMITRI_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return raw_.size();
  }
  size_t num_gps_records() const SEMITRI_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return gps_record_count_;
  }
  size_t num_episodes() const SEMITRI_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return episode_count_;
  }
  size_t num_semantic_episodes() const SEMITRI_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return semantic_episode_count_;
  }

  // --- read-only degraded mode ----------------------------------------
  //
  // A persistent write fault (WAL append or sync failure) flips the
  // store into read-only degraded mode: reads and already-durable data
  // stay served, every subsequent write-path call (Put*, Sync,
  // Checkpoint, SealWalSegment) returns Unavailable, and the
  // triggering fault is kept for HealthSnapshot to surface. This is the no-durability-lies stance: once a write
  // fault happened, accepting more writes would acknowledge data the
  // disk may never hold.

  // True when the store has entered read-only degraded mode.
  bool storage_degraded() const SEMITRI_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return degraded_;
  }

  // Human-readable cause of the degradation ("" when healthy).
  std::string degraded_reason() const SEMITRI_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return degraded_reason_;
  }

  // Attempts to leave degraded mode: discards the poisoned WAL writer,
  // truncates any torn tail the failed write left (so appends resume
  // on a frame boundary), reopens a fresh writer and probes it with an
  // fsync. Returns OK and clears the degraded flag only when the probe
  // succeeds; a still-bad disk keeps the store degraded. A failed-sync
  // record may already be durable in the log even though its Put
  // returned an error — recovery replays it (at-least-once for
  // unacknowledged writes; see DESIGN.md "Failure model & durability").
  [[nodiscard]] common::Status ExitDegradedMode() SEMITRI_EXCLUDES(mutex_);

  // --- persistence ----------------------------------------------------

  // Exports all tables as CSV files (gps.csv, episodes.csv,
  // semantic_episodes.csv) under `dir`, one row per element, with
  // round-trip (%.17g) float precision. The export is for other tools;
  // an entry with no rows (an empty trajectory, episode list or
  // interpretation) has no line in it. Durability does not go through
  // CSV: Checkpoint() writes binary snapshots that keep every entry.
  [[nodiscard]] common::Status SaveCsv(const std::string& dir) const
      SEMITRI_EXCLUDES(mutex_);

  // --- durability (durable_dir mode) ----------------------------------

  struct RecoveryStats {
    // The snapshot CURRENT names was replayed.
    bool checkpoint_loaded = false;
    // Records of sealed segments and the active log; snapshot records
    // are not counted.
    size_t wal_records_replayed = 0;
    size_t wal_torn_bytes_truncated = 0;
    // Sealed `wal-<seq>.log` segments replayed before the active log.
    size_t wal_segments_replayed = 0;
  };

  // Rebuilds the in-memory tables from `dir`, replacing current
  // content, and switches this store into durable mode on `dir` so
  // subsequent Puts append where the pre-crash process left off.
  // Replays, through the same record decoder, the snapshot CURRENT
  // names, then the sealed segments numbered above it (those at or
  // below it are in the snapshot), then the active log, truncating its
  // torn tail. A snapshot that is missing, not the size CURRENT
  // records, or torn or CRC-bad anywhere — like a torn sealed segment —
  // is Corruption, as is a CURRENT naming a `checkpoint-<n>/` CSV
  // directory of an older build. An append record whose start index
  // lies past the stored row count is set aside; unless a later full
  // put of the same entry in the replayed log rewrites it (a log
  // replayed over a newer snapshot, see ApplyWalRecord), recovery fails
  // with Corruption.
  [[nodiscard]] common::Result<RecoveryStats> Recover(const std::string& dir)
      SEMITRI_EXCLUDES(mutex_);

  // fsyncs the WAL (no-op outside durable mode).
  [[nodiscard]] common::Status Sync() SEMITRI_EXCLUDES(mutex_);

  // Atomically compacts the WAL into a binary snapshot: one full-put
  // WAL record per stored entry (store/wal.h frames, so empty entries
  // survive too) is written to `snapshot-<n>.log`, where n is the next
  // sequence number, and fsynced; CURRENT is then rewritten to
  // "<name> <byte size>" via tmp, fsync, rename and a directory fsync
  // (the commit point), the WAL is emptied, and the sealed segments and
  // older snapshots numbered below n are removed. A crash at any point
  // leaves either the old or the new snapshot authoritative. No-op
  // outside durable mode. Callers shipping segments to a standby must
  // ship before checkpointing or accept the lag: the snapshot itself
  // is never shipped.
  [[nodiscard]] common::Status Checkpoint() SEMITRI_EXCLUDES(mutex_);

  // Seals the active WAL into an immutable `wal-<seq>.log` segment
  // under durable_dir, seq being the next sequence number: fsync,
  // close, rename — the segment is complete and torn-tail-free once
  // visible under its sealed name — then creates the next active log
  // empty (best-effort), so the next Put only opens it. Returns the
  // sealed segment's filename, or "" when there was nothing to seal
  // (empty / absent log, or not in durable mode). Sealed segments are
  // what shard::WalShipper copies to a
  // standby directory; Recover() replays them in ascending sequence
  // order before the active log.
  [[nodiscard]] common::Result<std::string> SealWalSegment()
      SEMITRI_EXCLUDES(mutex_);

  // Sealed (`wal-<seq>.log`) segment filenames under `dir`, ascending
  // by sequence number. Static so a shipper can inspect a standby
  // directory no store has open. Null `env` means the real filesystem.
  static std::vector<std::string> ListSealedWalSegments(
      const std::string& dir, common::Env* env = nullptr);

  // The snapshot CURRENT publishes under `dir`.
  struct SnapshotRef {
    std::string name;     // "snapshot-<sequence>.log"
    size_t sequence = 0;  // sealed segments up to it are in the snapshot
    uint64_t bytes = 0;   // the file's size when it was published
  };
  // NotFound when `dir` has no CURRENT (never checkpointed); Corruption
  // when CURRENT does not name a snapshot. Static so the integrity
  // scrubber can check a directory no store has open.
  static common::Result<SnapshotRef> CurrentSnapshot(
      const std::string& dir, common::Env* env = nullptr);

 private:
  // Unavailable while degraded; OK otherwise.
  [[nodiscard]] common::Status CheckWritableLocked() const
      SEMITRI_REQUIRES(mutex_);
  // Draws the next sealed-segment/snapshot sequence number; the first
  // call after construction or Recover() scans durable_dir for the
  // highest number in use.
  [[nodiscard]] common::Result<size_t> TakeSequenceLocked()
      SEMITRI_REQUIRES(mutex_);
  // Lazily creates durable_dir and the WAL writer; OK outside durable
  // mode.
  [[nodiscard]] common::Status EnsureWal() SEMITRI_REQUIRES(mutex_);
  // Frames one record into the WAL (honoring sync_every_put); OK
  // outside durable mode.
  [[nodiscard]] common::Status LogToWal(WalRecordType type, const std::string& payload)
      SEMITRI_REQUIRES(mutex_);

  // In-memory table mutations shared by Put* and WAL replay.
  void ApplyRawTrajectory(const core::RawTrajectory& trajectory)
      SEMITRI_REQUIRES(mutex_);
  void ApplyEpisodes(core::TrajectoryId id,
                     const std::vector<core::Episode>& episodes)
      SEMITRI_REQUIRES(mutex_);
  void ApplyInterpretation(
      const core::StructuredSemanticTrajectory& trajectory)
      SEMITRI_REQUIRES(mutex_);
  // Append-record mutations: truncate the entry to `start` rows, then
  // append `tail`. Callers have checked start against the stored rows.
  void ApplyRawPointsAppend(core::TrajectoryId id, core::ObjectId object_id,
                            size_t start,
                            std::span<const core::GpsPoint> tail)
      SEMITRI_REQUIRES(mutex_);
  void ApplyEpisodesAppend(core::TrajectoryId id, size_t start,
                           std::span<const core::Episode> tail)
      SEMITRI_REQUIRES(mutex_);
  void ApplyInterpretationAppend(
      const core::StructuredSemanticTrajectory& header, size_t start,
      std::span<const core::SemanticEpisode> tail) SEMITRI_REQUIRES(mutex_);
  // Rows currently stored per entry (0 when absent).
  size_t StoredPoints(core::TrajectoryId id) const SEMITRI_REQUIRES(mutex_);
  size_t StoredEpisodes(core::TrajectoryId id) const SEMITRI_REQUIRES(mutex_);
  size_t StoredSemanticEpisodes(core::TrajectoryId id,
                                const std::string& interpretation) const
      SEMITRI_REQUIRES(mutex_);
  // Entries of one replay whose append record started past their stored
  // rows, each with the Corruption to report unless a later full put of
  // the entry rewrites it.
  using ReplayGaps = std::map<std::string, common::Status>;
  // Called under mutex_ — directly from Recover and through the replay
  // lambda, which the analysis cannot see through; suppressed instead
  // of annotated.
  [[nodiscard]] common::Status ApplyWalRecord(WalRecordType type,
                                std::string_view payload, ReplayGaps* gaps)
      SEMITRI_NO_THREAD_SAFETY_ANALYSIS;

  void ClearLocked() SEMITRI_REQUIRES(mutex_);

  // Flips the store into read-only degraded mode (recording `cause`)
  // and returns `cause` so write paths can `return EnterDegraded...`.
  [[nodiscard]] common::Status EnterDegradedLocked(common::Status cause)
      SEMITRI_REQUIRES(mutex_);

  StoreConfig config_ SEMITRI_GUARDED_BY(mutex_);
  common::Env* const env_;
  mutable std::mutex mutex_;
  bool degraded_ SEMITRI_GUARDED_BY(mutex_) = false;
  std::string degraded_reason_ SEMITRI_GUARDED_BY(mutex_);
  std::unique_ptr<WalWriter> wal_ SEMITRI_GUARDED_BY(mutex_);
  // Next sequence number; 0 until TakeSequenceLocked() scans the
  // directory.
  size_t next_sequence_ SEMITRI_GUARDED_BY(mutex_) = 0;
  std::map<core::TrajectoryId, core::RawTrajectory> raw_
      SEMITRI_GUARDED_BY(mutex_);
  std::map<core::TrajectoryId, std::vector<core::Episode>> episodes_
      SEMITRI_GUARDED_BY(mutex_);
  // (trajectory, interpretation) -> structured semantic trajectory
  std::map<std::pair<core::TrajectoryId, std::string>,
           core::StructuredSemanticTrajectory>
      interpretations_ SEMITRI_GUARDED_BY(mutex_);
  size_t gps_record_count_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t episode_count_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t semantic_episode_count_ SEMITRI_GUARDED_BY(mutex_) = 0;
};

}  // namespace semitri::store

#endif  // SEMITRI_STORE_SEMANTIC_TRAJECTORY_STORE_H_
