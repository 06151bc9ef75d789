#include "shard/shard_runtime.h"

#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/serial.h"

namespace semitri::shard {

ShardRuntime::ShardRuntime(std::shared_ptr<const core::AnnotationModel> model,
                           ShardRuntimeConfig config,
                           const common::Clock* clock)
    : config_(std::move(config)), env_(common::ResolveEnv(config_.env)) {
  store::StoreConfig store_config;
  store_config.sync_every_put = config_.sync_every_put;
  store_config.env = env_;
  store_ = std::make_unique<store::SemanticTrajectoryStore>(store_config);
  pipeline_ =
      std::make_unique<core::SemiTriPipeline>(std::move(model), store_.get());
  config_.manager.env = env_;
  manager_ = std::make_unique<stream::SessionManager>(pipeline_.get(),
                                                      config_.manager, clock);
  if (!config_.standby_dir.empty()) {
    shipper_ = std::make_unique<WalShipper>(config_.durable_dir,
                                            config_.standby_dir, env_);
  }
  if (config_.scrub_files_per_cycle > 0) {
    store::ScrubberConfig scrub;
    scrub.dir = config_.durable_dir;
    // The standby's shipped copies are the repair source; without a
    // standby corrupt files can only be quarantined.
    scrub.repair_dir = config_.standby_dir;
    scrub.files_per_cycle = config_.scrub_files_per_cycle;
    scrub.env = env_;
    scrubber_ = std::make_unique<store::IntegrityScrubber>(std::move(scrub));
  }
}

common::Result<std::unique_ptr<ShardRuntime>> ShardRuntime::Open(
    std::shared_ptr<const core::AnnotationModel> model,
    ShardRuntimeConfig config, const common::Clock* clock) {
  SEMITRI_CHECK(!config.durable_dir.empty()) << "a shard needs a durable_dir";
  std::unique_ptr<ShardRuntime> runtime(
      new ShardRuntime(std::move(model), std::move(config), clock));
  // Recover switches the store into durable mode on the shard's
  // directory — a fresh directory recovers to empty, a re-opened one
  // to the pre-crash tables.
  auto recovered = runtime->store_->Recover(runtime->config_.durable_dir);
  SEMITRI_RETURN_IF_ERROR(recovered.status());
  runtime->recovery_stats_ = *recovered;
  std::string ckpt = ManagerCheckpointPath(runtime->config_.durable_dir);
  if (runtime->env_->FileExists(ckpt)) {
    SEMITRI_RETURN_IF_ERROR(runtime->manager_->Restore(ckpt));
    runtime->manager_restored_ = true;
  }
  return runtime;
}

common::Status ShardRuntime::ScrubTick() {
  if (scrubber_ == nullptr) return common::Status::OK();
  return scrubber_->Tick();
}

common::Status ShardRuntime::Checkpoint() {
  // The manager checkpoint lands before the seal so that what ships is
  // ordered "ckpt <= WAL": the standby's store always holds at least
  // every row the shipped session state says was consumed. (The
  // reverse order could ship cursors pointing past rows stranded in
  // the unsealed tail — a silent loss a promotion would inherit.)
  SEMITRI_RETURN_IF_ERROR(
      manager_->Checkpoint(ManagerCheckpointPath(config_.durable_dir)));
  if (shipper_ != nullptr) {
    // Seal + ship before a later CompactStore() garbage-collects the
    // segments. A ship failure is replication lag (surfaced via
    // ShardHealthInfo), not a failed ack — the primary's own
    // durability does not depend on the standby.
    auto sealed = store_->SealWalSegment();
    SEMITRI_RETURN_IF_ERROR(sealed.status());
    if (auto shipped = shipper_->ShipSealedSegments(); shipped.ok()) {
      // Replicate the session/resume-cursor sidecar so a promoted
      // standby resumes its streams mid-flight. Same contract as
      // segments: failure is lag, not a failed ack.
      // semitri-lint: allow(unchecked-status) — sidecar ship failure
      // is replication lag by design; the primary's ack stands.
      (void)shipper_->ShipSidecarFile(kManagerCheckpointFile);
    }
  }
  return store_->Sync();
}

common::Result<WalShipper::ShipStats> ShardRuntime::SealAndShip() {
  auto sealed = store_->SealWalSegment();
  SEMITRI_RETURN_IF_ERROR(sealed.status());
  if (shipper_ == nullptr) return WalShipper::ShipStats{};
  return shipper_->ShipSealedSegments();
}

common::Result<std::string> ShardRuntime::PackForMigration(
    core::ObjectId object_id) const {
  common::FaultAction action = SEMITRI_FAULT_FIRE("migration_pack");
  if (action != common::FaultAction::kNone) {
    // Nothing was serialized or removed: the source still owns the
    // session, untouched.
    return common::Status::Unavailable("injected migration pack failure");
  }
  common::StateWriter packed;
  SEMITRI_RETURN_IF_ERROR(manager_->PackSession(object_id, &packed));
  return packed.Release();
}

common::Status ShardRuntime::AdoptFromMigration(core::ObjectId object_id,
                                                const std::string& packed) {
  common::FaultAction action = SEMITRI_FAULT_FIRE("migration_unpack");
  if (action != common::FaultAction::kNone) {
    // Nothing was installed: the destination does not own the session.
    return common::Status::Unavailable("injected migration unpack failure");
  }
  common::StateReader reader(packed);
  SEMITRI_RETURN_IF_ERROR(manager_->AdoptSession(object_id, &reader));
  if (!reader.AtEnd()) {
    return common::Status::Corruption("trailing bytes in packed session");
  }
  return common::Status::OK();
}

core::HealthSnapshot ShardRuntime::Health() const {
  core::HealthSnapshot snapshot = manager_->Health();
  if (store_->storage_degraded()) {
    snapshot.storage_degraded = true;
    snapshot.storage_fault = store_->degraded_reason();
  }
  if (scrubber_ != nullptr) {
    const store::IntegrityScrubber::Counters& c = scrubber_->counters();
    snapshot.scrub_files_scanned = c.files_scanned;
    snapshot.scrub_corrupt_detected = c.corrupt_detected;
    snapshot.scrub_repaired = c.repaired;
    snapshot.scrub_quarantined = c.quarantined;
    snapshot.scrub_cycles_completed = c.cycles_completed;
  }
  return snapshot;
}

core::ShardHealth ShardRuntime::ShardHealthInfo() const {
  core::HealthSnapshot snapshot = Health();
  core::ShardHealth info;
  info.shard_id = config_.shard_id;
  info.alive = true;
  info.live_sessions = snapshot.sessions.used;
  info.buffered_fixes = snapshot.buffered_fixes.used;
  if (shipper_ != nullptr) {
    WalShipper::Lag lag = shipper_->CurrentLag();
    info.wal_ship_lag_segments = lag.segments;
    info.wal_ship_lag_bytes = lag.bytes;
  }
  info.storage_degraded = snapshot.storage_degraded;
  info.storage_fault = snapshot.storage_fault;
  info.scrub_files_scanned = snapshot.scrub_files_scanned;
  info.scrub_corrupt_detected = snapshot.scrub_corrupt_detected;
  info.scrub_repaired = snapshot.scrub_repaired;
  info.scrub_quarantined = snapshot.scrub_quarantined;
  info.scrub_cycles_completed = snapshot.scrub_cycles_completed;
  info.degraded = snapshot.degraded();
  return info;
}

}  // namespace semitri::shard
