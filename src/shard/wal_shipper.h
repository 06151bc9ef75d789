#ifndef SEMITRI_SHARD_WAL_SHIPPER_H_
#define SEMITRI_SHARD_WAL_SHIPPER_H_

// Log shipping for a shard's private durable directory: copies sealed
// WAL segments (SemanticTrajectoryStore::SealWalSegment) to a standby
// directory. A standby rebuilt purely from shipped segments via
// SemanticTrajectoryStore::Recover converges to the primary's state as
// of the last shipped seal — the replication point
// ShardCluster::FailoverShard promotes. Shipping is pull-free and
// idempotent: a segment already present in the standby (same name,
// same size, CRC frame scan intact) is skipped, and each copy lands
// via write-to-tmp + fsync + rename, so a crash mid-ship never leaves
// a torn segment under a sealed name.
//
// Same-name-same-size alone is not proof of a good copy — a prior ship
// interrupted after rename, bit rot, or a hostile test can leave a
// same-size corrupt standby file that a pure metadata check would
// accept forever. Every standby segment is therefore verified once per
// shipper lifetime by replaying its CRC frames (store::ReplayWal with
// a no-op apply); a corrupt copy is re-shipped and counted in
// reshipped_corrupt_segments. Verified names are cached in memory, so
// steady-state re-ships stay metadata-cheap; a re-opened shipper
// (post-crash) re-verifies once. The cache relies on the store never
// reusing a segment name in a directory, not even after Checkpoint()
// removed the old segments.
//
// Beyond segments, the shipper also replicates the manager checkpoint
// sidecar (ShipManagerCheckpoint): the session/resume-cursor state a
// promoted standby needs to resume streams mid-flight. The sidecar
// mutates in place, so it is always copied, never skip-checked.
//
// Failed ships clean up after themselves: a fsync or rename failure
// removes the `.tmp` staging file (best-effort), and any orphaned
// `.tmp` from a *crashed* prior shipper is swept on the first ship and
// counted in tmp_orphans_removed — a tmp is never promoted, so
// sweeping is always safe.
//
// What the standby can lose: the active (unsealed) log tail, any
// sealed-but-unshipped segments, and manager state newer than the last
// shipped checkpoint — exactly what CurrentLag() reports and
// core::ShardHealth surfaces as WAL-ship lag. The primary's
// Checkpoint() garbage-collects sealed segments, so runtimes ship
// *before* compacting (shard::ShardRuntime does) or accept the gap.
//
// All file I/O goes through common::Env; pass a FaultFs to exercise
// the cleanup paths with injected fsync/rename faults.
//
// Fault site `wal_ship` — kFail: the ship reports an error and no
// segment is renamed into place (retry later); kCrash: the shipper goes
// dead like a crashed process (the sidecar ship shares the dead state).
//
// Not internally synchronized; the owning ShardRuntime serializes
// control-plane calls.

#include <cstddef>
#include <set>
#include <string>

#include "common/env.h"
#include "common/status.h"

namespace semitri::shard {

class WalShipper {
 public:
  // Neither directory needs to exist yet; the standby is created on
  // first ship. `env` null means the real filesystem.
  WalShipper(std::string source_dir, std::string standby_dir,
             common::Env* env = nullptr);

  struct ShipStats {
    size_t segments_shipped = 0;
    size_t bytes_shipped = 0;
    // Standby copies that matched by name+size but failed the CRC
    // frame scan and were shipped again.
    size_t reshipped_corrupt_segments = 0;
  };

  // Copies every sealed segment the standby is missing (or holds a
  // corrupt copy of), ascending by sequence. On error, segments
  // already renamed into place stay — re-shipping resumes where it
  // stopped — and the failed copy's `.tmp` is removed.
  [[nodiscard]] common::Result<ShipStats> ShipSealedSegments();

  // Copies `filename` (relative to the source dir, e.g. the manager
  // checkpoint) into the standby atomically. NotFound when the source
  // file does not exist yet.
  [[nodiscard]] common::Status ShipSidecarFile(const std::string& filename);

  struct Lag {
    size_t segments = 0;
    size_t bytes = 0;
  };
  // Sealed segments (and bytes) present at the source but absent from
  // the standby.
  Lag CurrentLag() const;

  size_t total_segments_shipped() const { return total_segments_; }
  size_t total_bytes_shipped() const { return total_bytes_; }
  size_t total_reshipped_corrupt() const { return total_reshipped_; }
  size_t total_sidecars_shipped() const { return total_sidecars_; }
  // Orphaned `.tmp` staging files removed from the standby — left by a
  // prior shipper that crashed mid-copy (swept once, on the first
  // ship) or by this shipper's own failed copies.
  size_t tmp_orphans_removed() const { return total_tmp_orphans_; }
  // True after an injected crash; later ships fail like writes to a
  // dead process.
  bool dead() const { return dead_; }

  const std::string& standby_dir() const { return standby_dir_; }

 private:
  // Removes every `*.tmp` under the standby dir (once per shipper):
  // staging leftovers from a crashed predecessor. Never fails the
  // ship — a missing or sweep-resistant tmp only wastes space.
  void SweepTmpOrphans();

  // write-to-tmp + fsync + rename; removes the tmp on any failure.
  [[nodiscard]] common::Status CopyAtomic(const std::string& from,
                                          const std::string& to);

  common::Env* const env_;
  std::string source_dir_;
  std::string standby_dir_;
  size_t total_segments_ = 0;
  size_t total_bytes_ = 0;
  size_t total_reshipped_ = 0;
  size_t total_sidecars_ = 0;
  size_t total_tmp_orphans_ = 0;
  bool swept_orphans_ = false;
  // Standby segment names whose CRC scan passed (or that this shipper
  // itself wrote) — immutable once verified.
  std::set<std::string> verified_;
  bool dead_ = false;
};

}  // namespace semitri::shard

#endif  // SEMITRI_SHARD_WAL_SHIPPER_H_
