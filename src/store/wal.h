#ifndef SEMITRI_STORE_WAL_H_
#define SEMITRI_STORE_WAL_H_

// Write-ahead log for the Semantic Trajectory Store's durable mode
// (paper §5.1 backs the store with PostgreSQL; a production-scale
// reimplementation needs the same crash discipline from its storage
// layer).
//
// Records are full puts (a whole trajectory, episode table or
// interpretation) or append records carrying only new rows plus the
// row index they start at; live sessions log appends, so WAL bytes
// grow linearly with the rows a trajectory gains (WalRecordType).
//
// On-disk format — a sequence of framed records:
//
//   u32 length   payload size in bytes (little-endian)
//   u32 crc32    CRC-32 of type byte + payload
//   u8  type     WalRecordType
//   ...payload   `length` bytes (common::StateWriter encoding)
//
// Checkpoint snapshots (SemanticTrajectoryStore::Checkpoint) are files
// of the same frames — one full put per stored entry, encoded by
// AppendWalFrame — so the store keeps a single on-disk record format
// and replays a snapshot with ReplayWal like any log.
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
  // Full puts: the payload is the whole entry (keyed overwrite).
  kPutRawTrajectory = 1,
  kPutEpisodes = 2,
  kPutInterpretation = 3,
  // Append records: the payload starts with the row index the new rows
  // begin at, then carries only those rows. Replay truncates the stored
  // entry to that index and appends, so a record replayed over a
  // checkpoint that already holds its rows changes nothing; a start
  // past the stored length is Corruption unless a later full put of
  // the entry rewrites it (see SemanticTrajectoryStore::Recover).
  kAppendRawPoints = 4,
  kAppendEpisodes = 5,
  kAppendInterpretation = 6,
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

struct WalReplayStats {
  size_t records_applied = 0;
  // Bytes dropped from the torn tail (0 for a cleanly closed log).
  size_t torn_bytes_truncated = 0;
};

// Reads `path` frame by frame through `env` (null = the real
// filesystem), calling `apply` for each intact record in order. A
// missing file is an empty log (0 records). The first torn or corrupt
// frame ends the replay; when `truncate_torn_tail` is set the file is
// truncated to the last intact frame so a writer can safely append.
// `apply` errors abort the replay and are returned.
[[nodiscard]] common::Result<WalReplayStats> ReplayWal(
    const std::string& path,
    const std::function<common::Status(WalRecordType, std::string_view)>&
        apply,
    bool truncate_torn_tail, common::Env* env = nullptr);

}  // namespace semitri::store

#endif  // SEMITRI_STORE_WAL_H_
