#ifndef SEMITRI_SHARD_SHARD_RUNTIME_H_
#define SEMITRI_SHARD_SHARD_RUNTIME_H_

// One shard of the sharded serving runtime: a private durable store
// (own WAL + checkpoint snapshot under ShardRuntimeConfig::
// durable_dir), a SemiTriPipeline writing to that store over a shared
// core::AnnotationModel, its own SessionManager (admission budgets
// included; the shard is the unit of parallel feeding), and a
// WalShipper replicating sealed WAL segments to a standby directory.
// The cluster façade (shard/cluster.h) and the process supervisor
// (tools/shardd) both compose these; a ShardRuntime itself never talks
// to another shard. The model is immutable and built once by its owner
// — the cluster, or a shardd worker process — so opening a shard never
// rebuilds the annotators.
//
// Lifecycle: Open() recovers the durable directory (snapshot + sealed
// segments + active WAL) and restores the manager checkpoint when one
// exists, so a re-opened shard resumes its sessions mid-stream.
// Checkpoint() is the durability point the supervisor acks against:
// sealed segments are shipped first (they are garbage-collected by a
// later store compaction), then the manager state lands atomically,
// then the store WAL is fsynced.
//
// Migration hooks: PackForMigration / AdoptFromMigration wrap the
// SessionManager pack/adopt seam with the `migration_pack` /
// `migration_unpack` fault sites; the in-between `migration_handoff`
// site fires in ShardCluster. See DESIGN.md "Shard deployment model"
// for the protocol's ownership semantics at each step.
//
// Feed() is thread-safe: concurrent feeds take turns on the manager's
// one lock, and the store synchronizes internally. Control-plane calls
// (Checkpoint, SealAndShip, migration hooks, CloseAll) must be
// serialized by the owner, feeds for an object being migrated quiesced
// from pack to adopt.

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/env.h"
#include "common/status.h"
#include "core/health.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "shard/ring.h"
#include "shard/wal_shipper.h"
#include "store/integrity_scrubber.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

namespace semitri::shard {

struct ShardRuntimeConfig {
  ShardId shard_id = 0;
  // Private WAL/checkpoint directory (store::StoreConfig::durable_dir).
  std::string durable_dir;
  // Sealed-segment ship target; "" disables shipping.
  std::string standby_dir;
  // Per-shard session/admission configuration.
  stream::SessionManagerConfig manager;
  // fsync the shard WAL on every Put (store::StoreConfig).
  bool sync_every_put = false;
  // Filesystem for every durable-path component (store, shipper,
  // scrubber, manager checkpoints); null = the real filesystem. Tests
  // pass a common::FaultFs to inject disk faults shard-wide.
  common::Env* env = nullptr;
  // Files the integrity scrubber verifies per ScrubTick(); 0 disables
  // the scrubber.
  size_t scrub_files_per_cycle = 4;
};

class ShardRuntime {
 public:
  // Opens (or re-opens after a crash) the shard: recovers the durable
  // store, puts a pipeline over `model` (non-null, shared with the
  // other shards; its world must outlive the runtime) and a manager on
  // it, restores the manager checkpoint when present. `clock` drives
  // idle/eviction time (null = real clock).
  [[nodiscard]] static common::Result<std::unique_ptr<ShardRuntime>> Open(
      std::shared_ptr<const core::AnnotationModel> model,
      ShardRuntimeConfig config, const common::Clock* clock = nullptr);

  // --- data plane -----------------------------------------------------

  [[nodiscard]] common::Result<stream::AnnotationSession::FeedResult> Feed(
      core::ObjectId object_id, const core::GpsPoint& fix) {
    return manager_->Feed(object_id, fix);
  }
  [[nodiscard]] common::Status CloseObject(core::ObjectId object_id) {
    return manager_->Close(object_id);
  }
  [[nodiscard]] common::Status CloseAll() { return manager_->CloseAll(); }

  // --- durability -----------------------------------------------------

  // The shard's ack point: ship sealed segments (best effort — lag is
  // health, not failure), write the manager checkpoint atomically,
  // fsync the store WAL. After a successful Checkpoint, every fix fed
  // before it survives a kill of this runtime.
  [[nodiscard]] common::Status Checkpoint();

  // Seals the active WAL and ships all pending sealed segments to the
  // standby (no-op stats without a standby).
  [[nodiscard]] common::Result<WalShipper::ShipStats> SealAndShip();

  // Compacts the store into a fresh binary snapshot (also GCs
  // shipped-or-not sealed segments — call SealAndShip first). Segments
  // sealed afterwards take numbers past the snapshot's, so the shipper
  // never meets a reused name and the standby still converges.
  [[nodiscard]] common::Status CompactStore() { return store_->Checkpoint(); }

  // One increment of background integrity scrubbing: re-verifies a few
  // sealed segments and the current snapshot by CRC frame scan (the
  // snapshot also against the size CURRENT records), repairing
  // segments from the standby and quarantining what cannot be repaired
  // (store/integrity_scrubber.h). No-op without a scrubber
  // (scrub_files_per_cycle == 0).
  [[nodiscard]] common::Status ScrubTick();

  // --- migration hooks ------------------------------------------------

  // Source side: serializes the object's session (or idle resume
  // cursor) for handoff. Fault site `migration_pack`; on any failure
  // the session is untouched and this shard still owns it.
  [[nodiscard]] common::Result<std::string> PackForMigration(
      core::ObjectId object_id) const;

  // Destination side: installs a packed session; it resumes mid-stream
  // here. Fault site `migration_unpack`; on failure nothing was
  // installed.
  [[nodiscard]] common::Status AdoptFromMigration(core::ObjectId object_id,
                                                  const std::string& packed);

  // --- observability --------------------------------------------------

  // The manager's snapshot overlaid with this shard's storage view:
  // read-only degraded state + triggering fault and the scrubber's
  // counters.
  core::HealthSnapshot Health() const;
  // This shard's row of the cluster rollup (core::HealthSnapshot::
  // shards).
  core::ShardHealth ShardHealthInfo() const;

  ShardId shard_id() const { return config_.shard_id; }
  const ShardRuntimeConfig& config() const { return config_; }
  const core::SemiTriPipeline& pipeline() const { return *pipeline_; }
  store::SemanticTrajectoryStore* store() { return store_.get(); }
  const store::SemanticTrajectoryStore* store() const { return store_.get(); }
  stream::SessionManager* manager() { return manager_.get(); }
  // Null when the shard runs without a standby (ship_wal=false).
  const WalShipper* shipper() const { return shipper_.get(); }
  // Null when scrubbing is disabled (scrub_files_per_cycle == 0).
  const store::IntegrityScrubber* scrubber() const { return scrubber_.get(); }
  // What Open() found on disk.
  const store::SemanticTrajectoryStore::RecoveryStats& recovery_stats()
      const {
    return recovery_stats_;
  }
  bool manager_restored() const { return manager_restored_; }

  static constexpr const char* kManagerCheckpointFile = "manager.ckpt";
  static std::string ManagerCheckpointPath(const std::string& durable_dir) {
    return durable_dir + "/" + kManagerCheckpointFile;
  }

 private:
  ShardRuntime(std::shared_ptr<const core::AnnotationModel> model,
               ShardRuntimeConfig config, const common::Clock* clock);

  ShardRuntimeConfig config_;
  common::Env* env_ = nullptr;  // resolved from config_.env, never null
  std::unique_ptr<store::SemanticTrajectoryStore> store_;
  std::unique_ptr<core::SemiTriPipeline> pipeline_;
  std::unique_ptr<stream::SessionManager> manager_;
  std::unique_ptr<WalShipper> shipper_;
  std::unique_ptr<store::IntegrityScrubber> scrubber_;
  store::SemanticTrajectoryStore::RecoveryStats recovery_stats_;
  bool manager_restored_ = false;
};

}  // namespace semitri::shard

#endif  // SEMITRI_SHARD_SHARD_RUNTIME_H_
