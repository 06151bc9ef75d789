#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "analytics/latency_profiler.h"
#include "bench_util.h"
#include "common/env.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "shard/chaos.h"
#include "shard/cluster.h"
#include "store/semantic_trajectory_store.h"
#include "stream/annotation_session.h"
#include "stream/session_manager.h"

namespace semitri::perfbench {
namespace {

using Clock = Tracer::Clock;
namespace fs = std::filesystem;

// --- workload shapes ------------------------------------------------------
// Sized so that a 30 s run holds several passes, enough closing feeds and
// kills for every reported percentile, and enough objects that the
// corpora of different seeds cost about the same.
constexpr uint64_t kCitySeed = 771;
constexpr double kCityExtentMeters = 6000.0;
constexpr int kCityPois = 3000;
constexpr int kPeopleUsers = 40;
constexpr int kPeopleDays = 1;
constexpr int kTaxis = 8;
constexpr int kTaxiDays = 1;
constexpr double kTaxiShiftHours = 6.0;
constexpr int kCars = 240;
constexpr int kCarDays = 2;
constexpr size_t kShards = 4;
// Cluster control plane: a CheckpointAll ack every this many feed rounds.
constexpr size_t kAckEverySteps = 50;
constexpr size_t kChaosKills = 8;
constexpr size_t kChaosMigrations = 16;
constexpr size_t kChaosSealShips = 12;
// A killed shard must serve again within this many Tick()s (the detector
// declares death after three missed probes).
constexpr size_t kMaxHealTicks = 16;
// Single-node workloads: crash restarts measured per pass.
constexpr int kRestartsPerPass = 4;
// Passes of each kind (untraced, traced) a run makes at least.
constexpr size_t kMinPasses = 3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

// Trajectory-id block per object, shared by the offline and live paths
// so both write the same rows.
core::TrajectoryId IdsPerObject() {
  return stream::SessionManagerConfig{}.ids_per_object;
}

// Decorates the real filesystem to count the bytes appended to active
// WAL files (`wal.log`). Sealing renames the active file, so every WAL
// byte is counted exactly once.
class CountingEnv final : public common::Env {
 public:
  size_t wal_bytes() const { return wal_bytes_.load(); }

  common::Result<std::unique_ptr<common::WritableFile>> NewWritableFile(
      const std::string& path, common::WriteMode mode) override {
    auto file = base_->NewWritableFile(path, mode);
    if (!file.ok() || fs::path(path).filename() != "wal.log") return file;
    return std::unique_ptr<common::WritableFile>(
        std::make_unique<CountingFile>(std::move(*file), &wal_bytes_));
  }
  common::Status ReadFileToString(const std::string& path,
                                  std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  common::Status WriteStringToFile(const std::string& path,
                                   std::string_view data,
                                   bool sync) override {
    return base_->WriteStringToFile(path, data, sync);
  }
  common::Status RenameFile(const std::string& from,
                            const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  common::Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  common::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  common::Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  common::Status RemoveDirRecursive(const std::string& dir) override {
    return base_->RemoveDirRecursive(dir);
  }
  common::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool IsDirectory(const std::string& path) override {
    return base_->IsDirectory(path);
  }
  common::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  common::Status TruncateFile(const std::string& path,
                              uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  class CountingFile final : public common::WritableFile {
   public:
    CountingFile(std::unique_ptr<common::WritableFile> base,
                 std::atomic<size_t>* bytes)
        : base_(std::move(base)), bytes_(bytes) {}
    common::Status Append(std::string_view data) override {
      common::Status status = base_->Append(data);
      if (status.ok()) bytes_->fetch_add(data.size());
      return status;
    }
    common::Status Sync() override { return base_->Sync(); }
    common::Status Truncate(uint64_t size) override {
      return base_->Truncate(size);
    }
    common::Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<common::WritableFile> base_;
    std::atomic<size_t>* bytes_;
  };

  common::Env* base_ = common::Env::Default();
  std::atomic<size_t> wal_bytes_{0};
};

store::StoreConfig DurableConfig(const std::string& dir, common::Env* env) {
  store::StoreConfig config;
  config.env = env;
  config.durable_dir = dir;
  return config;
}

// Offline ProcessStream of every track into `store`, then Sync: the
// untimed reference the live and cluster workloads are compared with.
common::Status ProcessOffline(const Inputs& in,
                              store::SemanticTrajectoryStore* store) {
  core::SemiTriPipeline pipeline(&in.world.regions, &in.world.roads,
                                 &in.world.pois, core::PipelineConfig{},
                                 store);
  for (const datagen::SimulatedTrack& track : in.dataset.tracks) {
    auto results = pipeline.ProcessStream(
        track.object_id, track.points, track.object_id * IdsPerObject());
    if (!results.ok()) return results.status();
  }
  return store->Sync();
}

struct PassResult {
  double setup_s = 0.0;
  // First fix to the final durability call.
  double window_s = 0.0;
  // End-to-end annotation latency samples (see README.md).
  std::vector<double> latency_ms;
  // Kill (or crash) until serving again.
  std::vector<double> failover_ms;
  ExactCounts counts;
};

// Per-run state shared by the pass loop and the workloads: operation
// accounting, and the span recorder and profiler sink of traced passes.
class RunState {
 public:
  explicit RunState(const RunOptions& options) : options_(options) {}

  const RunOptions& options() const { return options_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  const analytics::LatencyProfiler& profiler() const { return profiler_; }
  // The profiler the library writes stage timings to: traced passes only.
  analytics::LatencyProfiler* sink() { return traced_ ? &profiler_ : nullptr; }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool ok() const { return failed_ == 0; }
  const std::string& first_error() const { return first_error_; }

  void BeginPass(uint32_t pass, bool traced, uint32_t root) {
    pass_ = pass;
    traced_ = traced;
    root_ = root;
  }
  uint32_t pass() const { return pass_; }

  // One operation of the system under test; false when it failed.
  bool Op(const common::Status& status, std::string_view what) {
    ++attempted_;
    if (status.ok()) return true;
    Fail(std::string(what) + ": " + status.ToString());
    return false;
  }

  // One correctness check; a failed check fails the run.
  bool Check(bool passed, std::string_view what) {
    ++attempted_;
    if (!passed) Fail("check failed: " + std::string(what));
    return passed;
  }

  void Span(uint32_t name, Clock::time_point start, Clock::time_point end) {
    if (traced_) tracer_.Record(name, start, end, root_, pass_);
  }

  // Runs fn(), recording a span named `name` on traced passes and the
  // duration in *ms when given.
  template <typename Fn>
  auto Timed(uint32_t name, double* ms, Fn&& fn) {
    Clock::time_point start = Clock::now();
    auto result = fn();
    Clock::time_point end = Clock::now();
    if (ms != nullptr) *ms = MsBetween(start, end);
    Span(name, start, end);
    return result;
  }

 private:
  void Fail(std::string message) {
    ++failed_;
    if (first_error_.empty()) first_error_ = std::move(message);
  }

  const RunOptions& options_;
  Tracer tracer_;
  analytics::LatencyProfiler profiler_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::string first_error_;
  uint32_t pass_ = 0;
  bool traced_ = false;
  uint32_t root_ = 0;
};

class Workload {
 public:
  Workload(const Inputs& in, RunState& run) : in_(in), run_(run) {
    for (const datagen::SimulatedTrack& track : in_.dataset.tracks) {
      longest_ = std::max(longest_, track.points.size());
      points_ += track.points.size();
    }
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Untimed work before the first pass (reference runs).
  virtual void Prepare() {}
  // One pass: set up, feed the whole corpus, make it durable, check.
  virtual void RunPass(PassResult* pass) = 0;
  // This workload's WAL bytes over an offline run's on the same corpus.
  virtual double WalAmplification(size_t wal_bytes) const = 0;

 protected:
  uint32_t Name(std::string_view name) { return run_.tracer().Intern(name); }

  std::string PassDir(std::string_view kind) const {
    return run_.options().work_dir + "/pass-" +
           std::to_string(run_.pass()) + "/" + std::string(kind);
  }

  const std::vector<datagen::SimulatedTrack>& tracks() const {
    return in_.dataset.tracks;
  }

  std::unique_ptr<core::SemiTriPipeline> BuildPipeline(
      store::SemanticTrajectoryStore* store) {
    return run_.Timed(pipeline_build_, nullptr, [&] {
      return std::make_unique<core::SemiTriPipeline>(
          &in_.world.regions, &in_.world.roads, &in_.world.pois,
          core::PipelineConfig{}, store, run_.sink());
    });
  }

  // Sync then Checkpoint: the final durability calls of a single store.
  bool MakeDurable(store::SemanticTrajectoryStore* store) {
    return run_.Op(run_.Timed(sync_, nullptr, [&] { return store->Sync(); }),
                   "Sync") &&
           run_.Op(run_.Timed(checkpoint_, nullptr,
                              [&] { return store->Checkpoint(); }),
                   "Checkpoint");
  }

  // A feed whose result closed an episode or a trajectory produced
  // annotated rows: its duration is one annotation-latency sample.
  void RecordFeed(const stream::AnnotationSession::FeedResult& result,
                  Clock::time_point start, Clock::time_point end,
                  uint32_t quiet_span, uint32_t closing_span,
                  PassResult* pass) {
    const bool closing = result.episodes_closed > 0 || result.trajectory_closed;
    if (closing) pass->latency_ms.push_back(MsBetween(start, end));
    run_.Span(closing ? closing_span : quiet_span, start, end);
  }

  // Single-node failover: a restart after a crash, i.e. Recover() of the
  // durable directory plus a pipeline (and manager) over it. Every
  // recovered store must equal `expected`.
  void MeasureRestarts(const std::string& dir,
                       const store::SemanticTrajectoryStore& expected,
                       bool with_manager, PassResult* pass) {
    for (int i = 0; i < kRestartsPerPass; ++i) {
      Clock::time_point start = Clock::now();
      store::SemanticTrajectoryStore recovered;
      auto stats = run_.Timed(recover_, nullptr,
                              [&] { return recovered.Recover(dir); });
      if (!run_.Op(stats.status(), "Recover")) return;
      auto pipeline = BuildPipeline(&recovered);
      std::unique_ptr<stream::SessionManager> manager;
      if (with_manager) {
        manager = std::make_unique<stream::SessionManager>(pipeline.get());
      }
      pass->failover_ms.push_back(MsBetween(start, Clock::now()));
      if (!run_.Check(recovered.ContentEquals(expected),
                      "Recover() of the durable directory equals the "
                      "expected store")) {
        return;
      }
    }
  }

  const Inputs& in_;
  RunState& run_;
  size_t longest_ = 0;
  size_t points_ = 0;
  const uint32_t pipeline_build_ = Name("core.pipeline_build");
  const uint32_t sync_ = Name("store.sync");
  const uint32_t checkpoint_ = Name("store.checkpoint");
  const uint32_t recover_ = Name("store.recover");
};

// NokiaPeople phones through the offline pipeline, one ProcessStream per
// object, into a durable-WAL store. Never touches stream/ or shard/.
class OfflinePeople final : public Workload {
 public:
  using Workload::Workload;

  void RunPass(PassResult* pass) override {
    const std::string dir = PassDir("offline");
    CountingEnv env;
    Clock::time_point setup = Clock::now();
    store::SemanticTrajectoryStore store(DurableConfig(dir, &env));
    auto pipeline = BuildPipeline(&store);
    pass->setup_s = SecondsSince(setup);

    Clock::time_point start = Clock::now();
    for (const datagen::SimulatedTrack& track : tracks()) {
      double ms = 0.0;
      auto results = run_.Timed(process_stream_, &ms, [&] {
        return pipeline->ProcessStream(track.object_id, track.points,
                                       track.object_id * IdsPerObject());
      });
      if (!run_.Op(results.status(), "ProcessStream")) return;
      pass->latency_ms.push_back(ms);
    }
    if (!MakeDurable(&store)) return;
    pass->window_s = SecondsSince(start);
    pass->counts.points_fed = points_;
    pass->counts.wal_bytes = env.wal_bytes();
    MeasureRestarts(dir, store, /*with_manager=*/false, pass);
  }

  double WalAmplification(size_t) const override { return 1.0; }

 private:
  const uint32_t process_stream_ = Name("offline.process_stream");
};

// LausanneTaxis shifts fed round-robin, one fix at a time, through one
// SessionManager over a durable-WAL store.
class LiveTaxi final : public Workload {
 public:
  using Workload::Workload;

  void Prepare() override {
    reference_ = std::make_unique<store::SemanticTrajectoryStore>(
        DurableConfig(run_.options().work_dir + "/offline-reference",
                      &reference_env_));
    run_.Op(ProcessOffline(in_, reference_.get()), "offline reference run");
  }

  void RunPass(PassResult* pass) override {
    const std::string dir = PassDir("live");
    CountingEnv env;
    Clock::time_point setup = Clock::now();
    store::SemanticTrajectoryStore store(DurableConfig(dir, &env));
    auto pipeline = BuildPipeline(&store);
    stream::SessionManager manager(pipeline.get());
    pass->setup_s = SecondsSince(setup);

    Clock::time_point start = Clock::now();
    for (size_t k = 0; k < longest_; ++k) {
      for (const datagen::SimulatedTrack& track : tracks()) {
        if (k >= track.points.size()) continue;
        Clock::time_point fed_start = Clock::now();
        auto fed = manager.Feed(track.object_id, track.points[k]);
        Clock::time_point fed_end = Clock::now();
        if (!run_.Op(fed.status(), "Feed")) return;
        RecordFeed(*fed, fed_start, fed_end, feed_, feed_close_, pass);
      }
    }
    if (!run_.Op(run_.Timed(close_all_, nullptr,
                            [&] { return manager.CloseAll(); }),
                 "CloseAll") ||
        !MakeDurable(&store)) {
      return;
    }
    pass->window_s = SecondsSince(start);

    stream::SessionManager::Stats stats = manager.stats();
    pass->counts.points_fed = points_;
    pass->counts.annotation_passes = stats.annotation_passes;
    pass->counts.episodes_closed = stats.episodes_closed;
    pass->counts.wal_bytes = env.wal_bytes();
    if (!run_.Check(store.ContentEquals(*reference_),
                    "live store equals the offline reference")) {
      return;
    }
    MeasureRestarts(dir, *reference_, /*with_manager=*/true, pass);
  }

  double WalAmplification(size_t wal_bytes) const override {
    return static_cast<double>(wal_bytes) /
           static_cast<double>(std::max<size_t>(1, reference_env_.wal_bytes()));
  }

 private:
  const uint32_t feed_ = Name("stream.feed");
  const uint32_t feed_close_ = Name("stream.feed_close");
  const uint32_t close_all_ = Name("stream.close_all");
  CountingEnv reference_env_;
  std::unique_ptr<store::SemanticTrajectoryStore> reference_;
};

// MilanPrivateCars through a 4-shard ShardCluster with WAL shipping, the
// scrubber, auto failover and retrying feeds, under a seeded storm of
// kills, migrations and seal-and-ship waves.
class ClusterCars final : public Workload {
 public:
  using Workload::Workload;

  void Prepare() override {
    {
      core::SemiTriPipeline pipeline(&in_.world.regions, &in_.world.roads,
                                     &in_.world.pois, core::PipelineConfig{},
                                     &reference_);
      stream::SessionManager manager(&pipeline);
      for (size_t k = 0; k < longest_; ++k) {
        for (const datagen::SimulatedTrack& track : tracks()) {
          if (k >= track.points.size()) continue;
          if (!run_.Op(manager.Feed(track.object_id, track.points[k]).status(),
                       "reference Feed")) {
            return;
          }
        }
      }
      if (!run_.Op(manager.CloseAll(), "reference CloseAll")) return;
    }
    {
      store::SemanticTrajectoryStore offline(DurableConfig(
          run_.options().work_dir + "/offline-reference", &offline_env_));
      if (!run_.Op(ProcessOffline(in_, &offline), "offline reference run")) {
        return;
      }
    }

    shard::ChaosScheduleConfig chaos;
    chaos.seed = run_.options().seed ^ 0xC4A05ULL;
    chaos.num_steps = longest_;
    chaos.num_shards = kShards;
    chaos.num_objects = tracks().size();
    chaos.kills = kChaosKills;
    chaos.migrations = kChaosMigrations;
    chaos.seal_ships = kChaosSealShips;
    chaos.ship_faults = 0;
    // Kills fit in the middle 80% of the run, with room to heal between.
    chaos.min_kill_spacing =
        std::max<size_t>(4, longest_ * 8 / 10 / (kChaosKills * 3 / 2));
    schedule_ = shard::ChaosSchedule::Generate(chaos);
  }

  void RunPass(PassResult* pass) override {
    CountingEnv env;
    shard::ShardClusterConfig config;
    config.num_shards = kShards;
    config.base_dir = PassDir("cluster");
    config.env = &env;
    config.auto_failover = true;
    config.retry_feeds = true;
    // Probe on every Tick(); three straight misses declare a shard dead.
    config.detector.probe_interval_seconds = 0.0;
    config.detector.suspect_after = 1;
    config.detector.dead_after = 3;

    Clock::time_point setup = Clock::now();
    auto opened = run_.Timed(open_, nullptr, [&] {
      return shard::ShardCluster::Open(&in_.world.regions, &in_.world.roads,
                                       &in_.world.pois, config);
    });
    if (!run_.Op(opened.status(), "ShardCluster::Open")) return;
    std::unique_ptr<shard::ShardCluster> cluster = std::move(*opened);
    pass->setup_s = SecondsSince(setup);

    Retired retired;
    Clock::time_point start = Clock::now();
    for (size_t k = 0; k < longest_; ++k) {
      for (const shard::ChaosEvent& event : schedule_.EventsAt(k)) {
        if (!ApplyChaos(event, k, cluster.get(), &retired, pass)) return;
      }
      for (const datagen::SimulatedTrack& track : tracks()) {
        if (k >= track.points.size()) continue;
        Clock::time_point fed_start = Clock::now();
        auto fed = cluster->Feed(track.object_id, track.points[k]);
        Clock::time_point fed_end = Clock::now();
        if (!run_.Op(fed.status(), "ShardCluster::Feed")) return;
        RecordFeed(*fed, fed_start, fed_end, feed_, feed_close_, pass);
      }
      if (!Tick(cluster.get())) return;
      if ((k + 1) % kAckEverySteps == 0 && !CheckpointAll(cluster.get())) {
        return;
      }
    }
    if (!run_.Op(run_.Timed(close_all_, nullptr,
                            [&] { return cluster->CloseAll(); }),
                 "ShardCluster::CloseAll") ||
        !Ack(cluster.get())) {
      return;
    }
    pass->window_s = SecondsSince(start);

    pass->counts.points_fed = points_;
    pass->counts.wal_bytes = env.wal_bytes();
    pass->counts.shipped_bytes = retired.shipped_bytes;
    pass->counts.scrub_files_scanned = retired.scrub_files_scanned;
    for (size_t s = 0; s < kShards; ++s) {
      std::shared_ptr<shard::ShardRuntime> runtime = cluster->runtime(s);
      if (!run_.Check(runtime != nullptr, "every shard serves at the end")) {
        return;
      }
      AddRetired(*runtime, &pass->counts.shipped_bytes,
                 &pass->counts.scrub_files_scanned);
      stream::SessionManager::Stats stats = runtime->manager()->stats();
      pass->counts.annotation_passes += stats.annotation_passes;
      pass->counts.episodes_closed += stats.episodes_closed;
      if (!ProbeShardStore(runtime.get())) return;
    }
    BuildStandalonePipeline();

    store::SemanticTrajectoryStore merged;
    if (!run_.Op(run_.Timed(merge_, nullptr,
                            [&] { return cluster->MergeStores(&merged); }),
                 "MergeStores")) {
      return;
    }
    run_.Check(merged.ContentEquals(reference_),
               "merged shard stores equal the single-manager reference");
  }

  double WalAmplification(size_t wal_bytes) const override {
    return static_cast<double>(wal_bytes) /
           static_cast<double>(std::max<size_t>(1, offline_env_.wal_bytes()));
  }

 private:
  // Counters of runtimes a kill dropped; the replacement starts at zero.
  struct Retired {
    size_t shipped_bytes = 0;
    size_t scrub_files_scanned = 0;
  };

  static void AddRetired(const shard::ShardRuntime& runtime, size_t* shipped,
                         size_t* scanned) {
    if (runtime.shipper() != nullptr) {
      *shipped += runtime.shipper()->total_bytes_shipped();
    }
    if (runtime.scrubber() != nullptr) {
      *scanned += runtime.scrubber()->counters().files_scanned;
    }
  }

  bool Tick(shard::ShardCluster* cluster) {
    return run_.Op(
        run_.Timed(tick_, nullptr, [&] { return cluster->Tick(); }).status(),
        "Tick");
  }

  bool CheckpointAll(shard::ShardCluster* cluster) {
    return run_.Op(run_.Timed(checkpoint_all_, nullptr,
                              [&] { return cluster->CheckpointAll(); }),
                   "CheckpointAll");
  }

  // The ack: seal and ship every WAL, then checkpoint every shard, so a
  // promoted standby resumes exactly here.
  bool Ack(shard::ShardCluster* cluster) {
    auto shipped = run_.Timed(seal_ship_, nullptr,
                              [&] { return cluster->SealAndShipAll(); });
    return run_.Op(shipped.status(), "SealAndShipAll") &&
           CheckpointAll(cluster);
  }

  bool ApplyChaos(const shard::ChaosEvent& event, size_t step,
                  shard::ShardCluster* cluster, Retired* retired,
                  PassResult* pass) {
    switch (event.kind) {
      case shard::ChaosKind::kKill:
        return KillAndHeal(event.shard, step, cluster, retired, pass);
      case shard::ChaosKind::kMigrate: {
        const datagen::SimulatedTrack& track =
            tracks()[event.object_index % tracks().size()];
        if (step >= track.points.size()) return true;  // stream is over
        shard::ShardId dest =
            (cluster->OwnerOf(track.object_id) + 1) % cluster->num_shards();
        return run_.Op(run_.Timed(migrate_, nullptr,
                                  [&] {
                                    return cluster->MigrateObject(
                                        track.object_id, dest);
                                  }),
                       "MigrateObject");
      }
      case shard::ChaosKind::kSealShip:
        return run_.Op(run_.Timed(seal_ship_, nullptr,
                                  [&] { return cluster->SealAndShipAll(); })
                           .status(),
                       "SealAndShipAll");
      case shard::ChaosKind::kShipFault:
        return true;  // never scheduled: ship_faults = 0
    }
    return true;
  }

  // Acks, kills `victim`, ticks until its slot serves again, then
  // re-delivers the acked prefix of every object it owned: the promoted
  // standby sits exactly at the ack, so the re-fed fixes must come back
  // rejected.
  bool KillAndHeal(shard::ShardId victim, size_t step,
                   shard::ShardCluster* cluster, Retired* retired,
                   PassResult* pass) {
    if (!Ack(cluster)) return false;
    {
      std::shared_ptr<shard::ShardRuntime> runtime = cluster->runtime(victim);
      if (!run_.Check(runtime != nullptr, "kill victim serves")) return false;
      AddRetired(*runtime, &retired->shipped_bytes,
                 &retired->scrub_files_scanned);
    }
    std::vector<const datagen::SimulatedTrack*> owned;
    for (const datagen::SimulatedTrack& track : tracks()) {
      if (cluster->OwnerOf(track.object_id) == victim) owned.push_back(&track);
    }

    Clock::time_point killed = Clock::now();
    if (!run_.Op(cluster->KillShard(victim), "KillShard")) return false;
    for (size_t ticks = 0;
         cluster->runtime(victim) == nullptr && ticks < kMaxHealTicks;
         ++ticks) {
      if (!Tick(cluster)) return false;
    }
    Clock::time_point healed = Clock::now();
    if (!run_.Check(cluster->runtime(victim) != nullptr,
                    "a killed shard serves again through Tick() alone")) {
      return false;
    }
    run_.Span(failover_, killed, healed);
    pass->failover_ms.push_back(MsBetween(killed, healed));

    // The episode detector rejects only fixes older than the last one it
    // accepted, so the re-delivered last acked fix (same timestamp) is
    // admitted; the merged-store check proves it changes no row.
    size_t stale_accepted = 0;
    Clock::time_point refeed = Clock::now();
    for (const datagen::SimulatedTrack* track : owned) {
      const size_t acked = std::min(step, track->points.size());
      for (size_t r = 0; r < acked; ++r) {
        auto fed = cluster->Feed(track->object_id, track->points[r]);
        if (!run_.Op(fed.status(), "re-feed")) return false;
        if (!fed->accepted) {
          ++pass->counts.refeed_rejected;
        } else if (track->points[r].time < track->points[acked - 1].time) {
          ++stale_accepted;
        }
      }
    }
    run_.Span(refeed_, refeed, Clock::now());
    return run_.Check(stale_accepted == 0,
                      "every re-fed fix older than the ack is rejected");
  }

  // Store-level durability calls on one shard after the final ack:
  // Sync, compaction, and Recover() of its durable directory, which must
  // equal the live store.
  bool ProbeShardStore(shard::ShardRuntime* runtime) {
    store::SemanticTrajectoryStore* live = runtime->store();
    if (!run_.Op(run_.Timed(sync_, nullptr, [&] { return live->Sync(); }),
                 "shard Sync") ||
        !run_.Op(run_.Timed(checkpoint_, nullptr,
                            [&] { return runtime->CompactStore(); }),
                 "shard CompactStore")) {
      return false;
    }
    store::SemanticTrajectoryStore recovered;
    auto stats = run_.Timed(recover_, nullptr, [&] {
      return recovered.Recover(runtime->config().durable_dir);
    });
    return run_.Op(stats.status(), "shard Recover") &&
           run_.Check(recovered.ContentEquals(*live),
                      "Recover() of a shard directory equals its store");
  }

  // Shards build their pipelines inside Open() and failover, out of the
  // benchmark's reach; one standalone build with the same inputs times
  // what each of them pays.
  void BuildStandalonePipeline() {
    run_.Timed(pipeline_build_, nullptr, [&] {
      return std::make_unique<core::SemiTriPipeline>(
          &in_.world.regions, &in_.world.roads, &in_.world.pois,
          core::PipelineConfig{});
    });
  }

  const uint32_t open_ = Name("shard.open");
  const uint32_t feed_ = Name("shard.feed");
  const uint32_t feed_close_ = Name("shard.feed_close");
  const uint32_t tick_ = Name("shard.tick");
  const uint32_t checkpoint_all_ = Name("shard.checkpoint_all");
  const uint32_t seal_ship_ = Name("shard.seal_ship");
  const uint32_t migrate_ = Name("shard.migrate");
  const uint32_t failover_ = Name("shard.failover");
  const uint32_t refeed_ = Name("shard.refeed");
  const uint32_t close_all_ = Name("shard.close_all");
  const uint32_t merge_ = Name("shard.merge_stores");
  store::SemanticTrajectoryStore reference_;
  CountingEnv offline_env_;
  shard::ChaosSchedule schedule_;
};

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const Inputs& in, RunState& run) {
  if (name == "offline_people") return std::make_unique<OfflinePeople>(in, run);
  if (name == "live_taxi") return std::make_unique<LiveTaxi>(in, run);
  return std::make_unique<ClusterCars>(in, run);
}

// Enough passes, and enough samples for every end-to-end percentile.
bool SamplesSufficient(const std::vector<PassResult>& passes) {
  if (passes.size() < kMinPasses) return false;
  size_t latency = 0;
  size_t failover = 0;
  for (const PassResult& p : passes) {
    latency += p.latency_ms.size();
    failover += p.failover_ms.size();
  }
  return latency >= MinSamplesFor(0.9) && failover >= MinSamplesFor(0.5);
}

std::vector<double> Pooled(const std::vector<PassResult>& passes,
                           std::vector<double> PassResult::*field) {
  std::vector<double> out;
  for (const PassResult& p : passes) {
    out.insert(out.end(), (p.*field).begin(), (p.*field).end());
  }
  return out;
}

std::vector<double> PointsPerSecond(const std::vector<PassResult>& passes) {
  std::vector<double> out;
  for (const PassResult& p : passes) {
    out.push_back(static_cast<double>(p.counts.points_fed) / p.window_s);
  }
  return out;
}

void AddEndToEnd(const std::vector<PassResult>& passes, RunReport* report) {
  MetricSet& m = report->end_to_end;
  std::vector<double> setup;
  for (const PassResult& p : passes) setup.push_back(p.setup_s);
  m.Set("setup_s", Median(setup), "s");
  m.Set("points_per_s", Median(PointsPerSecond(passes)), "1/s");
  std::vector<double> latency = Pooled(passes, &PassResult::latency_ms);
  std::vector<double> failover = Pooled(passes, &PassResult::failover_ms);
  auto add_percentile = [&](const char* name, const std::vector<double>& v,
                            double q) {
    if (auto p = Percentile(v, q)) {
      m.Set(name, p->value, "ms");
      report->notes.push_back(std::string(name) + " from " +
                              std::to_string(p->samples) + " samples");
    } else {
      report->notes.push_back(std::string(name) + ": only " +
                              std::to_string(v.size()) + " samples");
    }
  };
  add_percentile("annotation_latency_p50_ms", latency, 0.5);
  add_percentile("annotation_latency_p90_ms", latency, 0.9);
  add_percentile("failover_p50_ms", failover, 0.5);
  m.Set("peak_rss_mb", PeakRssMb(), "MiB");
}

void AddPerLayer(const RunState& run, const Workload& workload,
                 const std::vector<PassResult>& untraced,
                 const std::vector<PassResult>& traced, RunReport* report) {
  MetricSet& m = report->per_layer;
  const Tracer& tracer = run.tracer();
  const analytics::LatencyProfiler& profiler = run.profiler();
  const double traced_passes = static_cast<double>(traced.size());
  auto per_pass = [&](double total) { return total / traced_passes; };
  // A layer the workload bypasses reads 0; one with too few samples for
  // its percentile is left out and noted.
  auto set_p50 = [&](const std::string& name, std::vector<double> samples,
                     double scale, const char* unit) {
    if (samples.empty()) {
      m.Set(name, 0.0, unit);
    } else if (auto p = Percentile(std::move(samples), 0.5)) {
      m.Set(name, p->value * scale, unit);
    } else {
      report->notes.push_back(name + ": too few samples for a p50");
    }
  };
  auto spans = [&](std::initializer_list<const char*> names) {
    std::vector<double> out;
    for (const char* name : names) {
      std::vector<double> d = tracer.DurationsMs(name);
      out.insert(out.end(), d.begin(), d.end());
    }
    return out;
  };
  auto stage_total = [&](const char* stage) {
    return per_pass(profiler.Total(stage) * 1e3);
  };
  auto stage_p50 = [&](const std::string& name, const char* stage) {
    const size_t n = profiler.Count(stage);
    if (n == 0) {
      m.Set(name, 0.0, "ms");
    } else if (n >= MinSamplesFor(0.5)) {
      m.Set(name, profiler.Percentile(stage, 0.5) * 1e3, "ms");
    } else {
      report->notes.push_back(name + ": too few samples for a p50");
    }
  };
  const ExactCounts& c = report->counts;
  const double points = static_cast<double>(c.points_fed);

  m.Set("traj.compute_episode_ms.total",
        stage_total(core::kStageComputeEpisode), "ms");
  m.Set("region.landuse_join_ms.total", stage_total(core::kStageLanduseJoin),
        "ms");
  m.Set("poi.point_annotation_ms.total",
        stage_total(core::kStagePointAnnotation), "ms");
  stage_p50("road.map_match_ms.p50", core::kStageMapMatch);
  m.Set("road.map_match_ms.total", stage_total(core::kStageMapMatch), "ms");
  stage_p50("store.store_episode_ms.p50", core::kStageStoreEpisode);
  m.Set("store.store_episode_ms.total", stage_total(core::kStageStoreEpisode),
        "ms");
  m.Set("store.store_match_result_ms.total",
        stage_total(core::kStageStoreMatch), "ms");
  m.Set("store.store_interpretation_ms.total",
        stage_total(core::kStageStoreInterpretation), "ms");
  m.Set("store.wal_bytes_per_fix",
        static_cast<double>(c.wal_bytes) / points, "bytes/fix");
  m.Set("store.wal_amplification", workload.WalAmplification(c.wal_bytes),
        "ratio");
  m.Set("store.sync_ms", Mean(tracer.DurationsMs("store.sync")), "ms");
  m.Set("store.checkpoint_ms", Mean(tracer.DurationsMs("store.checkpoint")),
        "ms");
  m.Set("store.recover_ms", Mean(tracer.DurationsMs("store.recover")), "ms");

  // Feeds that close nothing: the manager's in live_taxi, the cluster's
  // (routing included) in cluster_cars.
  set_p50("stream.feed_us.p50", spans({"stream.feed", "shard.feed"}), 1e3,
          "us");
  m.Set("stream.episode_annotation_ms.total",
        stage_total(stream::kStreamStageEpisodeAnnotation), "ms");
  m.Set("stream.finalize_trajectory_ms.total",
        stage_total(stream::kStreamStageFinalizeTrajectory), "ms");
  m.Set("stream.annotation_passes", static_cast<double>(c.annotation_passes),
        "count");
  m.Set("stream.episodes_closed", static_cast<double>(c.episodes_closed),
        "count");
  m.Set("stream.passes_per_episode",
        c.episodes_closed == 0 ? 0.0
                               : static_cast<double>(c.annotation_passes) /
                                     static_cast<double>(c.episodes_closed),
        "ratio");
  m.Set("core.pipeline_build_ms",
        Mean(tracer.DurationsMs("core.pipeline_build")), "ms");

  set_p50("shard.feed_us.p50", spans({"shard.feed", "shard.feed_close"}), 1e3,
          "us");
  set_p50("shard.tick_ms.p50", spans({"shard.tick"}), 1.0, "ms");
  m.Set("shard.tick_ms.total", per_pass(tracer.TotalMs("shard.tick")), "ms");
  m.Set("shard.scrub_files_scanned",
        static_cast<double>(c.scrub_files_scanned), "count");
  set_p50("shard.checkpoint_all_ms.p50", spans({"shard.checkpoint_all"}), 1.0,
          "ms");
  m.Set("shard.checkpoint_all_ms.total",
        per_pass(tracer.TotalMs("shard.checkpoint_all")), "ms");
  set_p50("shard.seal_ship_ms.p50", spans({"shard.seal_ship"}), 1.0, "ms");
  m.Set("shard.shipped_bytes", static_cast<double>(c.shipped_bytes), "bytes");
  set_p50("shard.migrate_ms.p50", spans({"shard.migrate"}), 1.0, "ms");
  set_p50("shard.failover_ms.p50", spans({"shard.failover"}), 1.0, "ms");
  m.Set("shard.refeed_rejected", static_cast<double>(c.refeed_rejected),
        "count");

  m.Set("bench.points_fed", points, "count");
  const double untraced_pps = Median(PointsPerSecond(untraced));
  const double traced_pps = Median(PointsPerSecond(traced));
  m.Set("trace.points_per_s_untraced", untraced_pps, "1/s");
  m.Set("trace.points_per_s_traced", traced_pps, "1/s");
  m.Set("trace.overhead_pct", (untraced_pps - traced_pps) / untraced_pps * 100,
        "%");
}

}  // namespace

bool IsWorkload(std::string_view name) {
  return std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                   name) != std::end(kWorkloadNames);
}

std::unique_ptr<Inputs> MakeInputs(std::string_view workload, uint64_t seed) {
  if (!IsWorkload(workload)) return nullptr;
  std::unique_ptr<Inputs> inputs(new Inputs{
      benchutil::MakeCity(kCitySeed, kCityExtentMeters, kCityPois), {}});
  datagen::DatasetFactory factory(&inputs->world,
                                  seed * 0x9E3779B97F4A7C15ULL + 1);
  if (workload == "offline_people") {
    inputs->dataset = factory.NokiaPeople(kPeopleUsers, kPeopleDays);
  } else if (workload == "live_taxi") {
    inputs->dataset = factory.LausanneTaxis(kTaxis, kTaxiDays, kTaxiShiftHours);
  } else {
    inputs->dataset = factory.MilanPrivateCars(kCars, kCarDays);
  }
  return inputs;
}

uint64_t CorpusChecksum(const datagen::Dataset& dataset) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  for (const datagen::SimulatedTrack& track : dataset.tracks) {
    mix(&track.object_id, sizeof(track.object_id));
    for (const core::GpsPoint& fix : track.points) {
      mix(&fix.position.x, sizeof(double));
      mix(&fix.position.y, sizeof(double));
      mix(&fix.time, sizeof(double));
    }
  }
  return hash;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Inputs> inputs = MakeInputs(options.workload, options.seed);
  if (inputs == nullptr) {
    report.notes.push_back("unknown workload: " + options.workload);
    return report;
  }
  report.corpus_checksum = CorpusChecksum(inputs->dataset);

  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir, ec);
  RunState run(options);
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, *inputs, run);
  workload->Prepare();

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  const uint32_t pass_span = run.tracer().Intern("pass");
  Clock::time_point start = Clock::now();
  // Passes repeat until the measured time is spent and every percentile
  // has its samples; a traced run alternates untraced and traced passes.
  while (run.ok()) {
    const double elapsed = SecondsSince(start);
    const bool done = elapsed >= options.seconds &&
                      SamplesSufficient(untraced) &&
                      (!options.trace || SamplesSufficient(traced));
    if (done || elapsed >= 2 * options.seconds + 20) break;
    const uint32_t index =
        static_cast<uint32_t>(untraced.size() + traced.size());
    const bool trace_pass = options.trace && index % 2 == 1;
    uint32_t root = 0;
    if (trace_pass) {
      root = run.tracer().Open(pass_span, Clock::now(), 0, index);
    }
    run.BeginPass(index, trace_pass, root);
    PassResult pass;
    workload->RunPass(&pass);
    if (trace_pass) run.tracer().Close(root, Clock::now());
    fs::remove_all(options.work_dir + "/pass-" + std::to_string(index), ec);
    (trace_pass ? traced : untraced).push_back(std::move(pass));
  }
  report.passes = untraced.size() + traced.size();

  if (run.ok() && !untraced.empty()) {
    report.counts = untraced.front().counts;
    bool repeat = true;
    for (const auto* passes : {&untraced, &traced}) {
      for (const PassResult& p : *passes) {
        repeat = repeat && p.counts == report.counts;
      }
    }
    run.Check(repeat, "exact counts repeat in every pass");
    if (options.trace) {
      if (!traced.empty()) {
        AddPerLayer(run, *workload, untraced, traced, &report);
      }
      if (!options.trace_path.empty() &&
          run.tracer().WriteChromeTrace(options.trace_path)) {
        report.notes.push_back("spans: " + options.trace_path + " (" +
                               std::to_string(run.tracer().spans().size()) +
                               ")");
      }
    } else {
      AddEndToEnd(untraced, &report);
    }
  }
  workload.reset();
  fs::remove_all(options.work_dir, ec);

  if (!run.first_error().empty()) report.notes.push_back(run.first_error());
  report.attempted = run.attempted();
  report.failed = run.failed();
  bool complete = true;
  if (options.trace) {
    for (std::string_view name : kPerLayerMetrics) {
      complete = complete && report.per_layer.Find(name) != nullptr;
    }
  } else {
    for (std::string_view name : kEndToEndMetrics) {
      complete = complete && report.end_to_end.Find(name) != nullptr;
    }
  }
  report.correct = run.ok() && complete;
  return report;
}

}  // namespace semitri::perfbench
