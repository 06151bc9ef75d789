#include "shard/cluster.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "common/serial.h"

namespace semitri::shard {

// A fixed set of threads that, with the calling thread, run one batch
// of indexed tasks at a time. Run() returns only after every worker has
// left the batch: a worker that returned once the last task was merely
// claimed could carry its claim counter into the next batch and run a
// new index against the old task.
class ShardCluster::Workers {
 public:
  using Task = std::function<common::Status(size_t)>;

  explicit Workers(size_t threads);
  ~Workers();
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  // Runs task(i) for every i in [0, n) on the workers and the calling
  // thread, and returns the first failure in index order once all n
  // have finished. One batch at a time: callers serialize. An exception
  // a task throws is rethrown here after the join.
  common::Status Run(size_t n, const Task& task);

 private:
  void Loop();
  // Takes indices of the current batch until none is left.
  void Claim(const Task& task, std::vector<common::Status>* statuses);
  void Stop();

  std::mutex mutex_;
  std::condition_variable wake_;  // a batch was posted, or stop_ set
  std::condition_variable idle_;  // busy_ reached 0
  // The current batch; each task writes only its own status slot.
  const Task* task_ SEMITRI_GUARDED_BY(mutex_) = nullptr;
  std::vector<common::Status>* statuses_ SEMITRI_GUARDED_BY(mutex_) =
      nullptr;
  uint64_t batch_ SEMITRI_GUARDED_BY(mutex_) = 0;
  // Workers that have not yet left the current batch.
  size_t busy_ SEMITRI_GUARDED_BY(mutex_) = 0;
  bool stop_ SEMITRI_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ SEMITRI_GUARDED_BY(mutex_);
  // The next unclaimed index; reset only while no worker is in a batch.
  std::atomic<size_t> next_{0};
  // semitri-lint: allow(guarded-by-completeness) — filled in the
  // constructor and joined by Stop(); its size never changes between.
  std::vector<std::thread> threads_;
};

ShardCluster::Workers::Workers(size_t threads) {
  threads_.reserve(threads);
  try {
    for (size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  } catch (...) {
    Stop();
    throw;
  }
}

ShardCluster::Workers::~Workers() { Stop(); }

common::Status ShardCluster::Workers::Run(size_t n, const Task& task) {
  std::vector<common::Status> statuses(n);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    statuses_ = &statuses;
    next_.store(0);
    busy_ = threads_.size();
    ++batch_;
  }
  wake_.notify_all();
  Claim(task, &statuses);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return busy_ == 0; });
    task_ = nullptr;
    statuses_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
  for (common::Status& status : statuses) {
    SEMITRI_RETURN_IF_ERROR(std::move(status));
  }
  return common::Status::OK();
}

void ShardCluster::Workers::Loop() {
  uint64_t seen = 0;
  for (;;) {
    const Task* task = nullptr;
    std::vector<common::Status>* statuses = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || batch_ != seen; });
      if (stop_) return;
      seen = batch_;
      task = task_;
      statuses = statuses_;
    }
    Claim(*task, statuses);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) idle_.notify_one();
  }
}

void ShardCluster::Workers::Claim(const Task& task,
                                  std::vector<common::Status>* statuses) {
  for (size_t i = next_++; i < statuses->size(); i = next_++) {
    try {
      (*statuses)[i] = task(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
  }
}

void ShardCluster::Workers::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

namespace {

// What a promotion abandons with the old primary directory: sealed
// segments the standby never (fully) received, and the active WAL
// tail. This is the bounded loss the self-healing ledger reports.
struct AbandonedLoss {
  size_t segments = 0;
  size_t tail_bytes = 0;
};

AbandonedLoss ScanAbandonedLoss(common::Env* env,
                                const std::string& primary_dir,
                                const std::string& standby_dir) {
  AbandonedLoss loss;
  for (const std::string& name :
       store::SemanticTrajectoryStore::ListSealedWalSegments(primary_dir,
                                                             env)) {
    auto src_size = env->FileSize(primary_dir + "/" + name);
    auto dst_size = env->FileSize(standby_dir + "/" + name);
    bool shipped = src_size.ok() && dst_size.ok() && *dst_size == *src_size;
    if (!shipped) ++loss.segments;
  }
  auto tail = env->FileSize(primary_dir + "/wal.log");
  if (tail.ok()) loss.tail_bytes = static_cast<size_t>(*tail);
  return loss;
}

ShardRuntimeConfig MakeShardConfig(const ShardClusterConfig& cluster,
                                   ShardId shard) {
  ShardRuntimeConfig config;
  config.shard_id = shard;
  config.durable_dir = cluster.base_dir + "/shard-" + std::to_string(shard);
  if (cluster.ship_wal) {
    config.standby_dir =
        cluster.base_dir + "/standby-" + std::to_string(shard);
  }
  config.manager = cluster.manager;
  config.sync_every_put = cluster.sync_every_put;
  config.env = cluster.env;
  config.scrub_files_per_cycle = cluster.scrub_files_per_cycle;
  return config;
}

}  // namespace

ShardCluster::ShardCluster(std::shared_ptr<const core::AnnotationModel> model,
                           ShardClusterConfig config,
                           const common::Clock* clock)
    : model_(std::move(model)),
      clock_(clock),
      config_(std::move(config)),
      ring_(config_.ring),
      // With the calling thread, one thread per shard serves a batch.
      workers_(std::make_unique<Workers>(config_.num_shards - 1)) {
  detector_ = std::make_unique<FailureDetector>(config_.detector, clock_);
  feed_retry_policy_ = common::RetryPolicy(config_.feed_retry, clock_);
  retry_feeds_enabled_ = config_.retry_feeds;
}

ShardCluster::~ShardCluster() = default;

common::Result<std::unique_ptr<ShardCluster>> ShardCluster::Open(
    const region::RegionSet* regions, const road::RoadNetwork* roads,
    const poi::PoiSet* pois, ShardClusterConfig config,
    const common::Clock* clock) {
  SEMITRI_CHECK(config.num_shards > 0) << "a cluster needs at least one shard";
  SEMITRI_CHECK(!config.base_dir.empty()) << "a cluster needs a base_dir";
  // The one model every shard, restart and failover of this cluster
  // runs: failovers pay recovery, not an annotator build.
  std::shared_ptr<const core::AnnotationModel> model =
      core::AnnotationModel::Build(regions, roads, pois, config.pipeline);
  std::unique_ptr<ShardCluster> cluster(
      new ShardCluster(std::move(model), std::move(config), clock));
  std::lock_guard<std::mutex> lock(cluster->mutex_);
  const size_t num_shards = cluster->config_.num_shards;
  std::vector<ShardRuntimeConfig> configs;
  configs.reserve(num_shards);
  for (ShardId i = 0; i < num_shards; ++i) {
    configs.push_back(MakeShardConfig(cluster->config_, i));
  }
  // Every shard recovers its own directory, all at once.
  std::vector<std::unique_ptr<ShardRuntime>> opened(num_shards);
  SEMITRI_RETURN_IF_ERROR(cluster->workers_->Run(
      num_shards, [&](size_t i) -> common::Status {
        auto runtime = ShardRuntime::Open(cluster->model_, configs[i], clock);
        SEMITRI_RETURN_IF_ERROR(runtime.status());
        opened[i] = std::move(runtime.value());
        return common::Status::OK();
      }));
  for (ShardId i = 0; i < num_shards; ++i) {
    cluster->shard_configs_.push_back(std::move(configs[i]));
    cluster->runtimes_.emplace_back(std::move(opened[i]));
    cluster->failover_epochs_.push_back(0);
    cluster->ring_.AddShard(i);
  }
  return cluster;
}

ShardId ShardCluster::OwnerLocked(core::ObjectId object_id) const {
  auto it = placement_.find(object_id);
  if (it != placement_.end()) return it->second;
  return ring_.ShardForObject(object_id);
}

std::shared_ptr<ShardRuntime> ShardCluster::RouteLocked(
    core::ObjectId object_id) {
  // One map walk: the ring is asked only for an object it has not seen.
  auto [it, inserted] = placement_.try_emplace(object_id, ShardId{0});
  if (inserted) {
    it->second = ring_.ShardForObject(object_id);
    history_[object_id].push_back(it->second);
  }
  return runtimes_[it->second];
}

common::Result<stream::AnnotationSession::FeedResult> ShardCluster::FeedOnce(
    core::ObjectId object_id, const core::GpsPoint& fix) {
  std::shared_ptr<ShardRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    runtime = RouteLocked(object_id);
    if (runtime == nullptr) {
      ++feeds_rejected_dead_shard_;
      return common::Status::Unavailable("owning shard is down");
    }
  }
  // Outside the cluster lock: feeds for objects on other shards proceed
  // in parallel, and feeds on this shard take turns on its manager's
  // lock. An in-flight feed keeps the runtime alive across a concurrent
  // KillShard/Failover via the shared_ptr.
  return runtime->Feed(object_id, fix);
}

common::Result<stream::AnnotationSession::FeedResult> ShardCluster::Feed(
    core::ObjectId object_id, const core::GpsPoint& fix) {
  if (!retry_feeds_enabled_) return FeedOnce(object_id, fix);
  // The attempt captures two pointers, which the std::function that
  // RetryPolicy::Run takes stores inline: a Feed allocates nothing.
  struct Call {
    core::ObjectId object_id;
    const core::GpsPoint& fix;
    common::Result<stream::AnnotationSession::FeedResult> result;
  } call{object_id, fix, stream::AnnotationSession::FeedResult{}};
  auto attempt = [this, &call]() -> common::Status {
    call.result = FeedOnce(call.object_id, call.fix);
    return call.result.status();
  };
  common::RetryPolicy::Outcome outcome = feed_retry_policy_.Run(
      attempt, static_cast<uint64_t>(object_id),
      // A feed waiting out a backoff is the cluster's idle moment:
      // drive detection (and auto-failover) forward so the next
      // attempt has a promoted runtime to land on. Under a FakeClock
      // the backoff sleep advances time, which is what schedules the
      // next probe — one retrying feed walks the whole
      // detect -> declare -> promote -> recover chain.
      [this]() {
        // semitri-lint: allow(unchecked-status) — best-effort tick;
        // the retry outcome carries the feed's own status.
        (void)Tick();
      });
  if (outcome.attempts > 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++feeds_retried_;
    if (outcome.recovered) ++feeds_recovered_;
  }
  SEMITRI_RETURN_IF_ERROR(outcome.status);
  return std::move(call.result);
}

common::Status ShardCluster::CloseObject(core::ObjectId object_id) {
  std::shared_ptr<ShardRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    runtime = runtimes_[OwnerLocked(object_id)];
    if (runtime == nullptr) {
      return common::Status::Unavailable("owning shard is down");
    }
  }
  return runtime->CloseObject(object_id);
}

common::Status ShardCluster::CloseAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ForEachLiveShardLocked(
      [](ShardId, ShardRuntime& runtime) { return runtime.CloseAll(); });
}

common::Status ShardCluster::ForEachLiveShardLocked(
    const std::function<common::Status(ShardId, ShardRuntime&)>& op) {
  // Tasks read this copy, never the guarded table.
  const std::vector<std::shared_ptr<ShardRuntime>> live = runtimes_;
  return workers_->Run(live.size(), [&](size_t i) -> common::Status {
    if (live[i] == nullptr) return common::Status::OK();
    return op(i, *live[i]);
  });
}

ShardId ShardCluster::OwnerOf(core::ObjectId object_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return OwnerLocked(object_id);
}

common::Status ShardCluster::MigrateObject(core::ObjectId object_id,
                                           ShardId dest) {
  std::lock_guard<std::mutex> lock(mutex_);
  return MigrateLocked(object_id, dest);
}

common::Status ShardCluster::MigrateLocked(core::ObjectId object_id,
                                           ShardId dest) {
  if (dest >= runtimes_.size()) {
    return common::Status::InvalidArgument("no such destination shard");
  }
  ShardId src_id = OwnerLocked(object_id);
  if (src_id == dest) return common::Status::OK();
  std::shared_ptr<ShardRuntime> src = runtimes_[src_id];
  std::shared_ptr<ShardRuntime> dst = runtimes_[dest];
  if (src == nullptr || dst == nullptr) {
    ++migrations_aborted_;
    return common::Status::Unavailable(
        "source or destination shard is down");
  }

  // 1. pack — on failure the source still owns the session, untouched.
  common::Result<std::string> packed = src->PackForMigration(object_id);
  if (!packed.ok()) {
    if (packed.status().code() == common::StatusCode::kNotFound) {
      // The object has no state on the source (never fed or fully
      // merged away): a pure routing flip.
      placement_[object_id] = dest;
      history_[object_id].push_back(dest);
      ++migrations_completed_;
      return common::Status::OK();
    }
    ++migrations_aborted_;
    return packed.status();
  }

  // 2. drain: the source finalizes its open trajectory into its own
  // durable store (truncated rows the destination's completed
  // trajectory overwrites at merge time) and advances its resume
  // cursor. From here the packed bytes are the only live copy; the
  // routing still points at the source, and rollback re-adopts there.
  // Even a failed flush retires the session (counted on the source as
  // a data-loss eviction) and the packed copy supersedes it either
  // way, so the drain status is deliberately dropped.
  (void)src->CloseObject(object_id);

  // Rollback bypasses the migration_unpack fault site: undoing an
  // injected handoff failure must not cascade through a second
  // injection. If the re-adopt itself fails the object is still
  // recoverable on the source alone — the drain landed its rows
  // durably and left a resume cursor there.
  auto rollback = [&]() {
    common::StateReader reader(*packed);
    // semitri-lint: allow(unchecked-status) — best-effort rollback;
    // the source's durable rows + resume cursor already guarantee
    // single-shard recoverability.
    (void)src->manager()->AdoptSession(object_id, &reader);
  };

  // 3. handoff — the packed bytes cross shard boundaries.
  if (SEMITRI_FAULT_FIRE("migration_handoff") != common::FaultAction::kNone) {
    rollback();
    ++migrations_aborted_;
    return common::Status::Unavailable("injected migration handoff failure");
  }

  // 4. adopt — on failure nothing was installed on the destination.
  common::Status adopted = dst->AdoptFromMigration(object_id, *packed);
  if (!adopted.ok()) {
    rollback();
    ++migrations_aborted_;
    return adopted;
  }

  // Commit: the destination owns; reconnects route there.
  placement_[object_id] = dest;
  history_[object_id].push_back(dest);
  ++migrations_completed_;
  return common::Status::OK();
}

common::Result<size_t> ShardCluster::AddShard() {
  std::lock_guard<std::mutex> lock(mutex_);
  ShardId id = shard_configs_.size();
  ShardRuntimeConfig shard_config = MakeShardConfig(config_, id);
  auto runtime = ShardRuntime::Open(model_, shard_config, clock_);
  SEMITRI_RETURN_IF_ERROR(runtime.status());
  shard_configs_.push_back(std::move(shard_config));
  runtimes_.emplace_back(std::move(runtime.value()));
  failover_epochs_.push_back(0);
  ring_.AddShard(id);
  return RebalanceLocked();
}

common::Result<size_t> ShardCluster::RemoveShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard >= runtimes_.size()) {
    return common::Status::InvalidArgument("no such shard");
  }
  if (!ring_.Contains(shard)) {
    return common::Status::FailedPrecondition("shard already removed");
  }
  if (ring_.num_shards() <= 1) {
    return common::Status::FailedPrecondition("cannot remove the last shard");
  }
  if (runtimes_[shard] == nullptr) {
    return common::Status::Unavailable(
        "shard is down; restart it before draining");
  }
  ring_.RemoveShard(shard);
  // The drained runtime stays open: its store keeps the rows earlier
  // ownership stints produced, which MergeStores still needs.
  return RebalanceLocked();
}

common::Result<size_t> ShardCluster::Rebalance() {
  std::lock_guard<std::mutex> lock(mutex_);
  return RebalanceLocked();
}

common::Result<size_t> ShardCluster::RebalanceLocked() {
  // Snapshot the disagreement set first: migrations mutate placement_.
  std::vector<std::pair<core::ObjectId, ShardId>> moves;
  for (const auto& [object, owner] : placement_) {
    ShardId want = ring_.ShardForObject(object);
    if (want != owner) moves.emplace_back(object, want);
  }
  size_t moved = 0;
  for (const auto& [object, want] : moves) {
    SEMITRI_RETURN_IF_ERROR(MigrateLocked(object, want));
    ++moved;
  }
  return moved;
}

common::Status ShardCluster::KillShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard >= runtimes_.size()) {
    return common::Status::InvalidArgument("no such shard");
  }
  if (runtimes_[shard] == nullptr) {
    return common::Status::FailedPrecondition("shard already down");
  }
  // No flush, no close: dropping the runtime is the in-process SIGKILL.
  // In-flight feeds holding the shared_ptr complete against the dying
  // instance; new feeds route Unavailable.
  runtimes_[shard].reset();
  ++shard_kills_;
  return common::Status::OK();
}

common::Status ShardCluster::RestartShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard >= runtimes_.size()) {
    return common::Status::InvalidArgument("no such shard");
  }
  if (runtimes_[shard] != nullptr) {
    return common::Status::FailedPrecondition("shard is not down");
  }
  auto runtime = ShardRuntime::Open(model_, shard_configs_[shard], clock_);
  SEMITRI_RETURN_IF_ERROR(runtime.status());
  runtimes_[shard] = std::move(runtime.value());
  ++shard_restarts_;
  // The replacement starts with a clean probe streak: a restart is an
  // operator-visible recovery just like a promotion.
  detector_->Forget(shard);
  return common::Status::OK();
}

common::Result<size_t> ShardCluster::Tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t failovers = 0;
  common::Status first = common::Status::OK();
  // One integrity-scrub increment per live shard per tick: the tick
  // loop is the cluster's idle heartbeat, so corruption is found in
  // steady state, not at the next failover. Scrub I/O trouble is
  // best-effort — it never blocks failure detection.
  // semitri-lint: allow(unchecked-status) — best-effort scrub; the
  // scrubber's counters and the health rollup carry what it found.
  (void)ForEachLiveShardLocked(
      [](ShardId, ShardRuntime& runtime) { return runtime.ScrubTick(); });
  for (ShardId id = 0; id < runtimes_.size(); ++id) {
    if (!detector_->ProbeDue(id)) continue;
    // The in-process probe: is the runtime slot occupied? (Process
    // isolation makes this "did the worker answer" in tools/shardd.)
    bool ok = runtimes_[id] != nullptr;
    bool was_dead = detector_->StateOf(id) == Liveness::kDead;
    Liveness state = detector_->Observe(id, ok);
    if (state != Liveness::kDead) continue;
    bool newly_dead = !was_dead;
    if (newly_dead) {
      time_to_detect_seconds_.push_back(
          detector_->observation(id).last_time_to_detect_seconds);
    }
    if (!config_.auto_failover) continue;
    // Promote on the declaration edge, and keep re-trying on later
    // ticks while the shard stays declared dead with no runtime (a
    // failed promotion must not wedge the slot forever).
    if (!newly_dead && runtimes_[id] != nullptr) continue;
    common::Status promoted = FailoverLocked(id);
    if (promoted.ok()) {
      ++failovers;
    } else if (first.ok()) {
      first = promoted;
    }
  }
  SEMITRI_RETURN_IF_ERROR(first);
  return failovers;
}

common::Status ShardCluster::FailoverShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FailoverLocked(shard);
}

common::Status ShardCluster::FailoverLocked(ShardId shard) {
  if (shard >= runtimes_.size()) {
    return common::Status::InvalidArgument("no such shard");
  }
  const ShardRuntimeConfig& current = shard_configs_[shard];
  if (current.standby_dir.empty()) {
    return common::Status::FailedPrecondition(
        "shard has no standby to promote (ship_wal disabled)");
  }
  int64_t started_nanos = cluster_clock()->NowNanos();
  if (runtimes_[shard] != nullptr) {
    // Fence: a promotion must never leave two writers for one
    // placement. A false-positive detection drops a live runtime here
    // — its unflushed work joins the ledgered loss, and the durable
    // directory it abandons stays on disk untouched.
    runtimes_[shard].reset();
    ++shards_fenced_;
  }
  if (SEMITRI_FAULT_FIRE("failover_promote") != common::FaultAction::kNone) {
    // Crash between fence and promote: the shard is down with both
    // directories intact — retry the failover, or RestartShard from
    // the old primary. Either path leaves exactly one recoverable
    // owner per object.
    ++failovers_aborted_;
    return common::Status::Unavailable("injected failover promote failure");
  }
  AbandonedLoss loss = ScanAbandonedLoss(common::ResolveEnv(config_.env),
                                         current.durable_dir,
                                         current.standby_dir);
  ShardRuntimeConfig promoted = current;
  promoted.durable_dir = current.standby_dir;
  size_t epoch = failover_epochs_[shard] + 1;
  promoted.standby_dir = config_.base_dir + "/standby-" +
                         std::to_string(shard) + "-e" + std::to_string(epoch);
  // Opening the promoted runtime recovers the shipped segments and
  // restores the shipped manager checkpoint: sessions resume
  // mid-stream at the replication point, rejecting re-fed fixes they
  // already consumed.
  auto runtime = ShardRuntime::Open(model_, promoted, clock_);
  if (!runtime.ok()) {
    // Directories unchanged; the failover can be retried.
    ++failovers_aborted_;
    return runtime.status();
  }
  shard_configs_[shard] = std::move(promoted);
  runtimes_[shard] = std::move(runtime.value());
  failover_epochs_[shard] = epoch;
  ++failovers_completed_;
  failover_lost_segments_ += loss.segments;
  failover_lost_tail_bytes_ += loss.tail_bytes;
  time_to_failover_seconds_.push_back(
      static_cast<double>(cluster_clock()->NowNanos() - started_nanos) *
      1e-9);
  detector_->Forget(shard);
  return common::Status::OK();
}

Liveness ShardCluster::ShardLiveness(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return detector_->StateOf(shard);
}

common::Status ShardCluster::CheckpointAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ForEachLiveShardLocked(
      [](ShardId, ShardRuntime& runtime) { return runtime.Checkpoint(); });
}

common::Result<WalShipper::ShipStats> ShardCluster::SealAndShipAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WalShipper::ShipStats> shipped(runtimes_.size());
  SEMITRI_RETURN_IF_ERROR(ForEachLiveShardLocked(
      [&shipped](ShardId id, ShardRuntime& runtime) -> common::Status {
        auto stats = runtime.SealAndShip();
        SEMITRI_RETURN_IF_ERROR(stats.status());
        shipped[id] = *stats;
        return common::Status::OK();
      }));
  WalShipper::ShipStats total;
  for (const WalShipper::ShipStats& stats : shipped) {
    total.segments_shipped += stats.segments_shipped;
    total.bytes_shipped += stats.bytes_shipped;
    total.reshipped_corrupt_segments += stats.reshipped_corrupt_segments;
  }
  return total;
}

core::HealthSnapshot ShardCluster::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  core::HealthSnapshot out;
  out.failovers_completed = failovers_completed_;
  out.failovers_aborted = failovers_aborted_;
  out.feeds_retried = feeds_retried_;
  out.feeds_recovered = feeds_recovered_;
  for (ShardId id = 0; id < runtimes_.size(); ++id) {
    if (runtimes_[id] == nullptr) {
      core::ShardHealth dead;
      dead.shard_id = id;
      dead.alive = false;
      FillDetectorHealth(id, &dead);
      out.shards.push_back(dead);
      continue;
    }
    out.shards.push_back(runtimes_[id]->ShardHealthInfo());
    FillDetectorHealth(id, &out.shards.back());
    core::HealthSnapshot shard = runtimes_[id]->Health();
    out.sessions.used += shard.sessions.used;
    out.sessions.limit += shard.sessions.limit;
    out.buffered_fixes.used += shard.buffered_fixes.used;
    out.buffered_fixes.limit += shard.buffered_fixes.limit;
    out.sessions_shed += shard.sessions_shed;
    out.admission_rejected_sessions += shard.admission_rejected_sessions;
    out.overload_rejected_fixes += shard.overload_rejected_fixes;
    out.evictions_with_data_loss += shard.evictions_with_data_loss;
    if (shard.storage_degraded && !out.storage_degraded) {
      out.storage_degraded = true;
      out.storage_fault = shard.storage_fault;
    }
    out.scrub_files_scanned += shard.scrub_files_scanned;
    out.scrub_corrupt_detected += shard.scrub_corrupt_detected;
    out.scrub_repaired += shard.scrub_repaired;
    out.scrub_quarantined += shard.scrub_quarantined;
    out.scrub_cycles_completed += shard.scrub_cycles_completed;
  }
  return out;
}

void ShardCluster::FillDetectorHealth(ShardId shard,
                                      core::ShardHealth* health) const {
  FailureDetector::ShardObservation obs = detector_->observation(shard);
  health->suspect = obs.state == Liveness::kSuspect;
  health->consecutive_probe_failures = obs.consecutive_failures;
  health->failover_epoch =
      shard < failover_epochs_.size() ? failover_epochs_[shard] : 0;
}

ShardCluster::Stats ShardCluster::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.migrations_completed = migrations_completed_;
  out.migrations_aborted = migrations_aborted_;
  out.shard_kills = shard_kills_;
  out.shard_restarts = shard_restarts_;
  out.feeds_rejected_dead_shard = feeds_rejected_dead_shard_;
  out.failovers_completed = failovers_completed_;
  out.failovers_aborted = failovers_aborted_;
  out.shards_fenced = shards_fenced_;
  out.detector_deaths_declared = detector_->deaths_declared();
  out.feeds_retried = feeds_retried_;
  out.feeds_recovered = feeds_recovered_;
  out.failover_lost_segments = failover_lost_segments_;
  out.failover_lost_tail_bytes = failover_lost_tail_bytes_;
  out.time_to_detect_seconds = time_to_detect_seconds_;
  out.time_to_failover_seconds = time_to_failover_seconds_;
  return out;
}

std::vector<ShardId> ShardCluster::LiveSessionShards(
    core::ObjectId object_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ShardId> owners;
  for (ShardId id = 0; id < runtimes_.size(); ++id) {
    if (runtimes_[id] != nullptr &&
        runtimes_[id]->manager()->HasLiveSession(object_id)) {
      owners.push_back(id);
    }
  }
  return owners;
}

common::Status ShardCluster::MergeStores(
    store::SemanticTrajectoryStore* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const core::TrajectoryId block = config_.manager.ids_per_object;
  // Killed shards are read by recovering scratch stores from their
  // durable directories (read-only: no Put ever touches them).
  std::map<ShardId, std::unique_ptr<store::SemanticTrajectoryStore>> scratch;
  for (const auto& [object, owners] : history_) {
    for (ShardId owner : owners) {
      const store::SemanticTrajectoryStore* src = nullptr;
      if (runtimes_[owner] != nullptr) {
        src = runtimes_[owner]->store();
      } else {
        auto it = scratch.find(owner);
        if (it == scratch.end()) {
          auto recovered_store =
              std::make_unique<store::SemanticTrajectoryStore>();
          auto recovered =
              recovered_store->Recover(shard_configs_[owner].durable_dir);
          SEMITRI_RETURN_IF_ERROR(recovered.status());
          it = scratch.emplace(owner, std::move(recovered_store)).first;
        }
        src = it->second.get();
      }
      // Copy this object's id-block rows; keyed overwrites make later
      // owners authoritative for trajectories both touched.
      for (core::TrajectoryId id : src->ListTrajectories()) {
        if (id / block != object) continue;
        auto raw = src->GetRawTrajectory(id);
        if (raw.ok()) {
          SEMITRI_RETURN_IF_ERROR(out->PutRawTrajectory(*raw));
        }
        auto episodes = src->GetEpisodes(id);
        if (episodes.ok()) {
          SEMITRI_RETURN_IF_ERROR(out->PutEpisodes(id, *episodes));
        }
        for (const std::string& interp : src->ListInterpretations(id)) {
          auto annotated = src->GetInterpretation(id, interp);
          if (annotated.ok()) {
            SEMITRI_RETURN_IF_ERROR(out->PutInterpretation(*annotated));
          }
        }
      }
    }
  }
  return common::Status::OK();
}

size_t ShardCluster::num_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runtimes_.size();
}

std::shared_ptr<ShardRuntime> ShardCluster::runtime(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shard < runtimes_.size() ? runtimes_[shard] : nullptr;
}

}  // namespace semitri::shard
