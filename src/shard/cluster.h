#ifndef SEMITRI_SHARD_CLUSTER_H_
#define SEMITRI_SHARD_CLUSTER_H_

// In-process N-shard deployment harness: ShardRuntimes behind a
// consistent-hash router, with live session migration, ring
// rebalancing, and kill/restart — the FakeClock-driven, TSan-checked
// twin of the tools/shardd process supervisor. Tests and the shard
// soak bench drive this façade; production-shaped process isolation is
// shardd's job.
//
// --- routing ----------------------------------------------------------
// An object's first feed pins it to its ring placement; afterwards the
// recorded placement is authoritative (migrations move it, ring
// changes alone do not — Rebalance() reconciles the two by migrating).
//
// --- live migration protocol -----------------------------------------
// MigrateObject(o, dest) runs a four-step handoff; ownership ( = who
// has the live session / who a reconnect must reach) at each step:
//
//   1. pack     (site migration_pack)    source serializes the session
//                                        mid-stream; SOURCE owns.
//   2. drain    (flushing Close)         source finalizes its open
//                                        trajectory into its own
//                                        durable store (truncated rows
//                                        — superseded later); the
//                                        packed bytes are now the only
//                                        live copy, held by the
//                                        router, which still routes to
//                                        SOURCE.
//   3. handoff  (site migration_handoff) bytes travel; on failure the
//                                        router re-adopts them into
//                                        SOURCE (rollback) — exactly
//                                        one owner either way.
//   4. adopt    (site migration_unpack)  destination installs the
//                                        session; on success the
//                                        routing flips and DEST owns;
//                                        on failure rollback to SOURCE.
//
// A fault fired at any site aborts the migration with the session
// recoverable on exactly one shard, and the convergence proof
// (MergeStores vs. the uninterrupted single-shard run, ContentEquals)
// still holds: the destination's completed trajectory rows overwrite
// the source's drain-truncated rows for the same trajectory ids.
//
// --- convergence accounting ------------------------------------------
// Each shard writes to its own store, so the cluster-wide state is the
// per-object merge of every owner's id-block rows in chronological
// ownership order (later owners hold the more complete version of the
// trajectory that was open at handoff). MergeStores materializes that
// merge; tests compare it ContentEquals against an uninterrupted
// single-process run.
//
// --- self-healing -----------------------------------------------------
// A FailureDetector (probed from Tick()) walks dead runtime slots
// through alive -> suspect -> dead; with auto_failover, a death
// declaration triggers FailoverShard: the standby directory — shipped
// sealed segments plus the shipped manager-checkpoint sidecar — is
// promoted to the shard's new durable directory, a replacement runtime
// opens on it (sessions resume mid-stream from the shipped checkpoint),
// and the old primary directory is abandoned. The replacement runs the
// cluster's one annotation model, so a failover costs the store's
// Recover() and the manager restore, not an annotator build.
// Placements are untouched (the same ShardId keeps serving), so
// routing heals the moment promotion completes.
// What promotion loses is bounded and ledgered in stats(): sealed-but-
// unshipped segments and the active WAL tail, i.e. everything after
// the last successful Checkpoint() ship. Drivers recover it exactly
// like after RestartShard — re-feed from the last acked checkpoint;
// restored sessions reject the already-consumed prefix per-fix, so
// at-least-once re-delivery is idempotent.
//
// With retry_feeds, Feed() consults a common::RetryPolicy instead of
// hard-failing on a dead shard: each backoff first drives Tick() (the
// waiting feed is the cluster's idle moment), so under a FakeClock a
// single retrying Feed deterministically advances detection, triggers
// the auto-failover, and recovers — the rejected-vs-retried-vs-
// recovered split lands in stats().
//
// --- upkeep fan-out ---------------------------------------------------
// The cluster owns num_shards - 1 worker threads, started by Open() and
// joined when the cluster is destroyed. The per-shard upkeep calls —
// the runtime opens in Open(), the scrub increments in Tick(),
// CheckpointAll(), SealAndShipAll() and CloseAll() — run one task per
// live shard on those workers and the calling thread at once. Each
// returns only after every task has finished and every worker has left
// the batch, and reports the first failure in shard order; so an OK
// ack still means every live shard is durable. A runtime still gets
// its control-plane calls one at a time. Migration, rebalance,
// failover, MergeStores() and Health() run on the calling thread.
// A fault site armed to fire once lands on whichever shard's task
// reaches it first, so tests must not depend on which shard that is.
//
// Thread safety: Feed() may be called from many threads. Objects on
// different shards proceed in parallel, and the cluster lock is held
// only to route; feeds to objects on one shard take turns on that
// shard's SessionManager lock. Control-plane calls (migrate, rebalance,
// kill, restart, failover, tick, checkpoint) serialize on the cluster
// lock, which a fanned-out call holds until its batch has joined. Feeds for an
// object must be quiesced while that object migrates — the standard
// drain contract, enforced by callers.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/health.h"
#include "core/types.h"
#include "shard/failure_detector.h"
#include "shard/ring.h"
#include "shard/shard_runtime.h"

namespace semitri::shard {

struct ShardClusterConfig {
  size_t num_shards = 4;
  // Per-shard directories live under here: <base_dir>/shard-<i> and
  // (when ship_wal) <base_dir>/standby-<i>.
  std::string base_dir;
  bool ship_wal = true;
  RingConfig ring;
  // Applied to every shard's SessionManager (admission budgets are
  // per-shard).
  stream::SessionManagerConfig manager;
  // Configures the one annotation model Open() builds and every shard
  // shares.
  core::PipelineConfig pipeline;
  bool sync_every_put = false;
  // Filesystem for every shard's durable paths (null = the real one);
  // tests pass a common::FaultFs to inject disk faults cluster-wide.
  common::Env* env = nullptr;
  // Per-shard integrity-scrubber increment driven from Tick(); 0
  // disables scrubbing (shard/shard_runtime.h).
  size_t scrub_files_per_cycle = 4;

  // --- self-healing ---------------------------------------------------
  FailureDetectorConfig detector;
  // Tick() promotes the standby automatically once the detector
  // declares a shard dead (requires ship_wal for a standby to
  // exist). Off by default: tests of manual kill/restart semantics
  // keep their dead shards dead.
  bool auto_failover = false;
  // Feed() retries transient failures per feed_retry (ticking the
  // detector before each backoff) instead of failing fast.
  bool retry_feeds = false;
  common::RetryPolicyConfig feed_retry;
};

class ShardCluster {
 public:
  // Builds one core::AnnotationModel from the world and
  // config.pipeline, starts the num_shards - 1 upkeep workers, then
  // opens num_shards runtimes over the model at once (each recovers any
  // pre-existing durable state under base_dir). Every shard opens
  // before the first failure in shard order is returned. AddShard,
  // RestartShard and failover open their runtimes over the same model.
  // Pointers must outlive the cluster; `clock` drives every shard's
  // idle/eviction time (null = real clock).
  [[nodiscard]] static common::Result<std::unique_ptr<ShardCluster>> Open(
      const region::RegionSet* regions, const road::RoadNetwork* roads,
      const poi::PoiSet* pois, ShardClusterConfig config,
      const common::Clock* clock = nullptr);

  // Joins the upkeep workers.
  ~ShardCluster();

  // --- data plane -----------------------------------------------------

  // Routes one fix to the owning shard. Without retry_feeds:
  // Unavailable when that shard is killed and not yet restarted
  // (counted in stats). With retry_feeds: transient failures back off
  // and retry per feed_retry — each backoff ticks the detector, so a
  // feed caught in a failover rides it out and recovers.
  [[nodiscard]] common::Result<stream::AnnotationSession::FeedResult> Feed(
      core::ObjectId object_id, const core::GpsPoint& fix);

  // Flushing close on the owning shard (stream end for one object).
  [[nodiscard]] common::Status CloseObject(core::ObjectId object_id);

  // Closes every session on every live shard, all shards at once;
  // returns the first failure in shard order once every shard is done.
  [[nodiscard]] common::Status CloseAll() SEMITRI_EXCLUDES(mutex_);

  // --- placement & migration ------------------------------------------

  // Where the object is (or would be) served.
  ShardId OwnerOf(core::ObjectId object_id) const SEMITRI_EXCLUDES(mutex_);

  // Live session migration (see protocol above). OK and a routing flip
  // on success; on any failure the object stays recoverable on exactly
  // one shard (the source) and the routing is unchanged.
  [[nodiscard]] common::Status MigrateObject(core::ObjectId object_id,
                                             ShardId dest)
      SEMITRI_EXCLUDES(mutex_);

  // Adds a new shard to the ring and migrates every object whose ring
  // placement moved onto it. Returns the number migrated.
  [[nodiscard]] common::Result<size_t> AddShard() SEMITRI_EXCLUDES(mutex_);

  // Removes the shard from the ring and migrates everything it owns to
  // the survivors. The drained runtime stays open (its store still
  // holds rows that MergeStores needs). Returns the number migrated.
  [[nodiscard]] common::Result<size_t> RemoveShard(ShardId shard)
      SEMITRI_EXCLUDES(mutex_);

  // Migrates every object whose recorded placement disagrees with the
  // current ring (after AddShard this is a no-op; exposed for churn
  // tests). Returns the number migrated.
  [[nodiscard]] common::Result<size_t> Rebalance() SEMITRI_EXCLUDES(mutex_);

  // --- failure injection (process-level) ------------------------------

  // Drops the runtime without any flush — sessions, admission state
  // and un-checkpointed progress vanish, exactly like SIGKILL. The
  // durable directory survives; feeds route Unavailable until restart.
  [[nodiscard]] common::Status KillShard(ShardId shard)
      SEMITRI_EXCLUDES(mutex_);

  // Re-opens the killed shard from its durable directory (store
  // recovery + manager checkpoint restore). Sessions resume from the
  // shard's last Checkpoint(); the driver re-feeds from its last acked
  // position, as any client of an at-least-once ingest would.
  [[nodiscard]] common::Status RestartShard(ShardId shard)
      SEMITRI_EXCLUDES(mutex_);

  // --- self-healing ---------------------------------------------------

  // One integrity-scrub increment on every live shard, all shards at
  // once (best effort: scrub errors are dropped), then one detector
  // pass on the calling thread: probes every shard slot that is due
  // (FailureDetectorConfig::probe_interval_seconds), walks suspicion
  // state, and — with auto_failover — promotes the standby of every
  // shard newly declared dead. Returns failovers performed this tick.
  [[nodiscard]] common::Result<size_t> Tick() SEMITRI_EXCLUDES(mutex_);

  // Promotes the shard's standby directory (shipped sealed segments +
  // shipped manager checkpoint) to its new durable directory and opens
  // a replacement runtime on it; a fresh epoch-suffixed standby
  // directory takes over as the ship target. Any still-live runtime is
  // fenced first (a false-positive detection must not leave two
  // writers). The loss is bounded by replication lag — sealed-but-
  // unshipped segments plus the active WAL tail — and ledgered in
  // stats(); drivers re-feed from their last acked checkpoint exactly
  // as after RestartShard. FailedPrecondition without a standby
  // (ship_wal=false). Fault site `failover_promote`; on any failure
  // the shard stays down with its pre-failover directories intact, so
  // the failover (or a restart) can be retried.
  [[nodiscard]] common::Status FailoverShard(ShardId shard)
      SEMITRI_EXCLUDES(mutex_);

  // Detector state for one shard (kAlive for unknown ids).
  Liveness ShardLiveness(ShardId shard) const SEMITRI_EXCLUDES(mutex_);

  // --- durability -----------------------------------------------------

  // The cluster ack: ShardRuntime::Checkpoint() on every live shard,
  // all shards at once. Returns once every shard is done: OK means
  // every live shard is durable, else the first failure in shard order.
  [[nodiscard]] common::Status CheckpointAll() SEMITRI_EXCLUDES(mutex_);
  // Seals and ships every live shard's WAL, all shards at once. A
  // failing shard does not stop the others: each live shard seals and
  // ships, then the call returns the summed totals, or the first
  // failure in shard order (and no totals).
  [[nodiscard]] common::Result<WalShipper::ShipStats> SealAndShipAll()
      SEMITRI_EXCLUDES(mutex_);

  // --- observability --------------------------------------------------

  // Cluster snapshot: per-shard rollup (core::HealthSnapshot::shards)
  // plus summed budget gauges; dead shards report alive=false.
  core::HealthSnapshot Health() const SEMITRI_EXCLUDES(mutex_);

  struct Stats {
    size_t migrations_completed = 0;
    size_t migrations_aborted = 0;
    size_t shard_kills = 0;
    size_t shard_restarts = 0;
    // Feed attempts turned away because the owning shard was down.
    // With retry_feeds every failed attempt counts, so this reads as
    // attempt pressure; feeds_recovered below says how many of those
    // feeds ultimately landed anyway.
    size_t feeds_rejected_dead_shard = 0;
    // --- self-healing ledger ------------------------------------------
    size_t failovers_completed = 0;
    size_t failovers_aborted = 0;
    // Live runtimes dropped by a (false-positive) failover's fence.
    size_t shards_fenced = 0;
    size_t detector_deaths_declared = 0;
    // Feeds that performed at least one retry / that then succeeded.
    size_t feeds_retried = 0;
    size_t feeds_recovered = 0;
    // Bounded loss accepted by promotions: sealed-but-unshipped
    // segments and active-tail bytes abandoned with the old primary
    // directory — the replication-lag budget that
    // `lost_acknowledged_fixes` convergence accounting charges re-fed
    // drivers against.
    size_t failover_lost_segments = 0;
    size_t failover_lost_tail_bytes = 0;
    // Per-event latency samples (seconds): first failed probe ->
    // death declaration, and failover start -> promoted runtime open.
    std::vector<double> time_to_detect_seconds;
    std::vector<double> time_to_failover_seconds;
  };
  Stats stats() const SEMITRI_EXCLUDES(mutex_);

  // Shards that currently hold a LIVE session for the object (the
  // exactly-one-owner invariant check for migration fault tests).
  std::vector<ShardId> LiveSessionShards(core::ObjectId object_id) const
      SEMITRI_EXCLUDES(mutex_);

  // Materializes the cluster-wide store state: every owner's id-block
  // rows per object, merged in chronological ownership order (see
  // convergence accounting above). Killed shards are read by
  // recovering a scratch store from their durable directory.
  [[nodiscard]] common::Status MergeStores(
      store::SemanticTrajectoryStore* out) const SEMITRI_EXCLUDES(mutex_);

  size_t num_shards() const SEMITRI_EXCLUDES(mutex_);
  // The runtime slot (null while killed).
  std::shared_ptr<ShardRuntime> runtime(ShardId shard) const
      SEMITRI_EXCLUDES(mutex_);

 private:
  // The upkeep pool (defined in cluster.cc).
  class Workers;

  ShardCluster(std::shared_ptr<const core::AnnotationModel> model,
               ShardClusterConfig config, const common::Clock* clock);

  // One routing attempt plus the runtime's Feed (Feed() without the
  // retry loop).
  [[nodiscard]] common::Result<stream::AnnotationSession::FeedResult>
  FeedOnce(core::ObjectId object_id, const core::GpsPoint& fix)
      SEMITRI_EXCLUDES(mutex_);
  ShardId OwnerLocked(core::ObjectId object_id) const
      SEMITRI_REQUIRES(mutex_);
  // Records first-touch placement; returns the owning runtime (null =
  // dead shard).
  std::shared_ptr<ShardRuntime> RouteLocked(core::ObjectId object_id)
      SEMITRI_REQUIRES(mutex_);
  // Runs op(shard, runtime) for every live shard on the upkeep pool,
  // one task per shard, over a copy of runtimes_ taken under the lock.
  // Returns once every task is done: the first failure in shard order.
  [[nodiscard]] common::Status ForEachLiveShardLocked(
      const std::function<common::Status(ShardId, ShardRuntime&)>& op)
      SEMITRI_REQUIRES(mutex_);
  [[nodiscard]] common::Status MigrateLocked(core::ObjectId object_id,
                                             ShardId dest)
      SEMITRI_REQUIRES(mutex_);
  [[nodiscard]] common::Result<size_t> RebalanceLocked()
      SEMITRI_REQUIRES(mutex_);
  [[nodiscard]] common::Status FailoverLocked(ShardId shard)
      SEMITRI_REQUIRES(mutex_);
  const common::Clock* cluster_clock() const {
    return clock_ != nullptr ? clock_ : common::Clock::Real();
  }
  void FillDetectorHealth(ShardId shard, core::ShardHealth* health) const
      SEMITRI_REQUIRES(mutex_);

  // Set in Open() and never replaced.
  const std::shared_ptr<const core::AnnotationModel> model_;
  const common::Clock* clock_;

  mutable std::mutex mutex_;
  ShardClusterConfig config_ SEMITRI_GUARDED_BY(mutex_);
  ConsistentHashRing ring_ SEMITRI_GUARDED_BY(mutex_);
  std::vector<ShardRuntimeConfig> shard_configs_ SEMITRI_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<ShardRuntime>> runtimes_
      SEMITRI_GUARDED_BY(mutex_);
  // Authoritative placement of every object ever fed (ring placement
  // at first touch, then wherever migrations moved it).
  std::map<core::ObjectId, ShardId> placement_ SEMITRI_GUARDED_BY(mutex_);
  // Chronological owners per object — the MergeStores merge order.
  std::map<core::ObjectId, std::vector<ShardId>> history_
      SEMITRI_GUARDED_BY(mutex_);
  size_t migrations_completed_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t migrations_aborted_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t shard_kills_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t shard_restarts_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t feeds_rejected_dead_shard_ SEMITRI_GUARDED_BY(mutex_) = 0;

  // --- self-healing state ---------------------------------------------
  std::unique_ptr<FailureDetector> detector_ SEMITRI_GUARDED_BY(mutex_);
  // Promotions per shard slot — names each epoch's standby directory.
  std::vector<size_t> failover_epochs_ SEMITRI_GUARDED_BY(mutex_);
  size_t failovers_completed_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t failovers_aborted_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t shards_fenced_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t feeds_retried_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t feeds_recovered_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t failover_lost_segments_ SEMITRI_GUARDED_BY(mutex_) = 0;
  size_t failover_lost_tail_bytes_ SEMITRI_GUARDED_BY(mutex_) = 0;
  std::vector<double> time_to_detect_seconds_ SEMITRI_GUARDED_BY(mutex_);
  std::vector<double> time_to_failover_seconds_ SEMITRI_GUARDED_BY(mutex_);
  // Immutable after construction: the retrying Feed path reads it
  // without the cluster lock because backoff sleeps must not hold it.
  // semitri-lint: allow(guarded-by-completeness) — written only in the
  // constructor, then read-only; Run() sleeps outside the lock.
  common::RetryPolicy feed_retry_policy_;
  // Also immutable after construction; the lock-free Feed fast path
  // branches on it before deciding whether to take the retry loop.
  // semitri-lint: allow(guarded-by-completeness) — set once in the
  // constructor from config_, never written again.
  bool retry_feeds_enabled_ = false;
  // Declared last, so its threads are joined before any other member
  // is destroyed. The pool synchronizes itself; the cluster hands it
  // one batch at a time, under mutex_.
  const std::unique_ptr<Workers> workers_;
};

}  // namespace semitri::shard

#endif  // SEMITRI_SHARD_CLUSTER_H_
