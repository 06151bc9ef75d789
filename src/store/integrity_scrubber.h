#ifndef SEMITRI_STORE_INTEGRITY_SCRUBBER_H_
#define SEMITRI_STORE_INTEGRITY_SCRUBBER_H_

// Background integrity scrubbing for a store's durable directory.
//
// Crash recovery only proves the files it happens to read; bit rot in
// a cold snapshot or a sealed WAL segment stays invisible until the
// next Recover() — which is exactly when repair options have run out.
// The scrubber walks the durable directory incrementally, a few files
// per Tick(), re-verifying by a CRC frame scan (a replay with a no-op
// apply; both kinds of file are cleanly closed WAL frame sequences, so
// any torn or CRC-failing frame means the file is corrupt):
//
//  - sealed WAL segments (wal-<seq>.log);
//  - the snapshot CURRENT names (snapshot-<seq>.log), whose size must
//    also equal the byte count CURRENT records — a snapshot cut short
//    at a frame boundary scans clean but is still caught.
//
// A corrupt file is repaired in place when `repair_dir` (the shard's
// standby, holding shipped copies) has an intact copy: atomic
// write-to-tmp + fsync + rename, then re-verified. Without a usable
// copy the file is renamed to `<name>.quarantined` — recovery stops
// seeing it, the loss becomes loud (counters + ShardHealth
// storage_fault) instead of a CRC surprise at the next failover.
// Snapshots are never shipped, so a corrupt one always quarantines
// (and Recover() then fails loudly rather than load it).
//
// One Tick scrubs up to `files_per_cycle` files; when the worklist is
// exhausted the cycle counter advances and the next Tick starts a
// fresh walk, so new segments and snapshots are picked up. Driven by
// ShardRuntime::ScrubTick() from the cluster's Tick loop.
//
// Not internally synchronized; the owner serializes Tick() with
// Checkpoint()/CompactStore() (both can legitimately delete files the
// worklist still names — a vanished file is skipped, not an error).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace semitri::store {

struct ScrubberConfig {
  // Durable directory to scrub (snapshot + sealed WAL segments).
  std::string dir;
  // Standby directory holding shipped copies to repair from; "" means
  // no repair source (corrupt files can only be quarantined).
  std::string repair_dir;
  // Files verified per Tick(); bounds the scrubber's I/O burst.
  size_t files_per_cycle = 4;
  // Null = the real filesystem.
  common::Env* env = nullptr;
};

class IntegrityScrubber {
 public:
  explicit IntegrityScrubber(ScrubberConfig config);

  struct Counters {
    size_t files_scanned = 0;
    size_t corrupt_detected = 0;
    size_t repaired = 0;
    size_t quarantined = 0;
    size_t cycles_completed = 0;
  };

  // Scrubs up to files_per_cycle files of the current walk. Corruption
  // is not an error — it is detected, repaired or quarantined, and
  // counted; only I/O trouble enumerating the directory fails a Tick.
  [[nodiscard]] common::Status Tick();

  const Counters& counters() const { return counters_; }

  // Most recent file quarantined without repair ("" when every
  // detection was repaired) — the string ShardHealth::storage_fault
  // surfaces.
  const std::string& last_quarantine() const { return last_quarantine_; }

 private:
  struct WorkItem {
    std::string path;         // file under scrub
    std::string repair_path;  // standby copy ("" when none can exist)
    // The byte size CURRENT records (snapshots only).
    std::optional<uint64_t> size;
  };

  // Enumerates the directory into `worklist_` for a fresh cycle.
  [[nodiscard]] common::Status BuildWorklist();
  void ScrubOne(const WorkItem& item);
  bool Verify(const WorkItem& item, const std::string& path) const;
  // Atomic copy of item.repair_path over item.path; true on success
  // with the repaired file re-verified.
  bool Repair(const WorkItem& item);
  void Quarantine(const WorkItem& item);

  const ScrubberConfig config_;
  common::Env* const env_;
  Counters counters_;
  std::string last_quarantine_;
  std::vector<WorkItem> worklist_;
  size_t cursor_ = 0;
};

}  // namespace semitri::store

#endif  // SEMITRI_STORE_INTEGRITY_SCRUBBER_H_
