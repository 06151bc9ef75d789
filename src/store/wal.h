#ifndef SEMITRI_STORE_WAL_H_
#define SEMITRI_STORE_WAL_H_

// Write-ahead log for the Semantic Trajectory Store's durable mode
// (paper §5.1 backs the store with PostgreSQL; a production-scale
// reimplementation needs the same crash discipline from its storage
// layer).
//
// Records are row ranges: each store table (GPS records, episodes,
// semantic episodes) has one record type, carrying rows [start, n) of
// one entry plus `start` (WalRecordType). A whole-entry write is the
// record with start 0; live sessions log only the rows a trajectory
// gained, so WAL bytes grow linearly with it.
//
// On-disk format — a sequence of framed records:
//
//   u32 length   payload size in bytes (little-endian)
//   u32 crc32    CRC-32 of type byte + payload
//   u8  type     WalRecordType
//   ...payload   `length` bytes (common::StateWriter encoding)
//
// Checkpoint snapshots (SemanticTrajectoryStore::Checkpoint) are files
// of the same frames — one start-0 record per stored entry, encoded by
// AppendWalFrame — so the store keeps a single on-disk record format
// and replays a snapshot with ReplayWal like any log. The session
// manager's checkpoint file is one frame of its own type
// (stream::SessionManager::Checkpoint), so all CRC framing lives here.
//
// A crash mid-append leaves a torn final frame (short header, short
// payload, or CRC mismatch). Replay treats the first bad frame as the
// torn tail: every frame before it is applied, the tail is truncated,
// and appending resumes at the truncation point. This is the standard
// WAL recovery contract (cf. LevelDB/RocksDB log_reader): records are
// either fully applied or fully dropped, never half-parsed.
//
// Durability: Append buffers through the OS only (a plain write());
// Sync() fsyncs the descriptor. The store decides the sync policy
// (StoreConfig::sync_every_put or explicit Sync()).
//
// Poisoning: after ANY write/sync/truncate failure — real disk error
// or injected — the writer is poisoned and every later operation
// fails. A failed fsync may have dropped dirty pages the kernel will
// never retry (the PostgreSQL fsyncgate lesson), so a later Sync()
// succeeding must not be read as "the earlier appends are durable".
// The only way forward is rotation: discard the writer, truncate the
// torn tail via replay, and open a fresh one.
//
// All file I/O goes through common::Env; pass a FaultFs to inject
// ENOSPC/EIO/short-write/fsync faults (tests/env_fault_test.cc).
//
// Fault sites (live once a harness engages the injector):
//   wal_append — kFail: append reports an error and is not written;
//                kCrash: half the frame is written, then the writer
//                goes dead (simulated power cut; leaves a torn tail).
//   wal_sync   — kFail: sync reports an error; kCrash: writer goes dead.
//
// Not thread-safe; the store serializes access under its table mutex.

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/env.h"
#include "common/status.h"

namespace semitri::store {

enum class WalRecordType : uint8_t {
  // 1-3 held whole-entry puts in older builds. They are retired and
  // never reused, so such a frame fails the store's replay as an
  // unknown type instead of being misread.
  //
  // Row-range records, one per store table: the payload carries the
  // row index the rows begin at and only those rows. Applying
  // one truncates the stored entry to that index and appends, so start
  // 0 writes the whole entry, and a record replayed over a checkpoint
  // that already holds its rows changes nothing; a start past the
  // stored length is Corruption unless a later row-0 record of the
  // entry rewrites it (see SemanticTrajectoryStore::Recover).
  kRawPoints = 4,
  kEpisodes = 5,
  kInterpretation = 6,
  // The one frame of a stream::SessionManager checkpoint file; never
  // in a store log.
  kSessionCheckpoint = 7,
};

class WalWriter {
 public:
  // Opens `path` for appending (created if absent) through `env` (null
  // = the real filesystem). The caller must have truncated any torn
  // tail first (ReplayWal does) — appending after a torn frame would
  // make every subsequent record unreachable.
  [[nodiscard]] static common::Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, common::Env* env = nullptr);

  ~WalWriter() = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one framed record via a single write call. Poisons the
  // writer on failure.
  [[nodiscard]] common::Status Append(WalRecordType type, std::string_view payload);

  // fsyncs everything appended so far. Poisons the writer on failure:
  // after a failed fsync the earlier appends' durability is unknown
  // and a retry succeeding would be a durability lie.
  [[nodiscard]] common::Status Sync();

  // Empties the log (checkpoint compaction) and syncs the truncation.
  // Poisons the writer on failure.
  [[nodiscard]] common::Status Truncate();

  // True after a simulated crash (injected at wal_append/wal_sync);
  // every later operation fails with IoError, like writes to a dead
  // process would.
  bool dead() const { return dead_; }

  // True after any failed append/sync/truncate; every later operation
  // fails until the caller rotates to a fresh writer.
  bool poisoned() const { return poisoned_; }

 private:
  explicit WalWriter(std::unique_ptr<common::WritableFile> file)
      : file_(std::move(file)) {}

  // Records the failure that poisoned the writer and returns `st`.
  [[nodiscard]] common::Status Poison(common::Status st);

  std::unique_ptr<common::WritableFile> file_;
  bool dead_ = false;
  bool poisoned_ = false;
  common::Status poison_cause_;
};

// Appends one framed record (the on-disk format above) to `out`; the
// frame encoding WalWriter::Append writes, for callers that build a
// whole file of records in memory.
void AppendWalFrame(WalRecordType type, std::string_view payload,
                    std::string* out);

// Calls `apply` for each intact frame of `data` in order and returns
// the byte length of that intact prefix: decoding stops at the first
// torn or corrupt frame. `apply` errors abort decoding and are
// returned.
[[nodiscard]] common::Result<size_t> DecodeWalFrames(
    std::string_view data,
    const std::function<common::Status(WalRecordType, std::string_view)>&
        apply);

struct WalReplayStats {
  size_t records_applied = 0;
  // Bytes dropped from the torn tail (0 for a cleanly closed log).
  size_t torn_bytes_truncated = 0;
};

// Reads `path` through `env` (null = the real filesystem) and decodes
// it with DecodeWalFrames. A missing file is an empty log (0 records).
// When `truncate_torn_tail` is set the file is truncated to the last
// intact frame so a writer can safely append.
[[nodiscard]] common::Result<WalReplayStats> ReplayWal(
    const std::string& path,
    const std::function<common::Status(WalRecordType, std::string_view)>&
        apply,
    bool truncate_torn_tail, common::Env* env = nullptr);

}  // namespace semitri::store

#endif  // SEMITRI_STORE_WAL_H_
