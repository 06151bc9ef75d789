// shardd — the sharded serving runtime as real processes.
//
// One binary, two modes:
//
//   shardd --mode=supervise [--shards N] [--base-dir DIR]
//          [--kill-shard K] [--checkpoint-every M] [--no-kill]
//          [--max-restarts R] [--failover]
//
//     Generates a deterministic multi-object GPS workload, partitions
//     it per shard with the same consistent-hash ring every worker
//     would compute (shard/ring.h), writes one feed file per shard,
//     and fork/execs one `--mode=worker` process per shard. Mid-run it
//     SIGKILLs one worker after its first checkpoint, exactly the
//     crash the in-process ShardCluster::KillShard models.
//
//     Every abnormal worker exit — the scripted kill included — is
//     healed by the supervision loop: the worker is respawned with
//     --resume after a capped-exponential backoff (the
//     common::RetryPolicy curve), at most --max-restarts times per
//     shard. With --failover the scripted victim's primary directory
//     is treated as lost instead: the supervisor promotes the standby
//     (shipped sealed WAL segments + manager-checkpoint sidecar) to be
//     the new durable directory, exactly like
//     ShardCluster::FailoverShard, and the respawned worker re-feeds
//     from the start of its feed — the promoted sessions reject the
//     already-consumed prefix per-fix, so the at-least-once
//     re-delivery converges.
//
//     When every worker has exited it recovers each shard's durable
//     directory into a scratch store, merges them, and compares
//     ContentEquals against an uninterrupted in-process reference run
//     of the same streams. Exit 0 = zero lost acknowledged fixes (and
//     nothing extra); exit 1 = divergence.
//
//   shardd --mode=worker --shard I --base-dir DIR --feed FILE
//          [--checkpoint-every M] [--resume] [--standby-epoch E]
//
//     One shard: builds the world and its core::AnnotationModel once
//     per process, opens shard::ShardRuntime over that model on
//     DIR/shard-I (standby at DIR/standby-I, or DIR/standby-I-eE after
//     E failovers), feeds the CSV fix stream ("object,time,x,y"),
//     checkpoints every M feeds and then atomically records its
//     progress (DIR/shard-I.progress) — the ack point a supervisor may
//     re-feed from. With --resume it recovers the durable directory and
//     skips the acked prefix; re-fed fixes the restored sessions
//     already consumed are rejected as stale per-fix, so at-least-once
//     redelivery is idempotent.
//
// The workload, world seed, and ring seed are compiled in: every
// process derives the identical placement without coordination.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "core/types.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "shard/ring.h"
#include "shard/shard_runtime.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

namespace semitri::shardd {
namespace {

namespace fs = std::filesystem;

// Every process (supervisor and workers) rebuilds this exact world, so
// every worker's annotation model and the supervisor's reference
// pipeline annotate against identical regions/roads/POIs.
constexpr uint64_t kWorldSeed = 211;
constexpr uint64_t kDatasetSeed = 212;
constexpr double kWorldExtentMeters = 3000.0;
constexpr int kWorldPois = 400;

struct Options {
  std::string mode;
  size_t shards = 2;
  std::string base_dir = "/tmp/semitri-shardd";
  size_t shard = 0;
  std::string feed;
  size_t checkpoint_every = 150;
  bool resume = false;
  // Supervisor: which shard to SIGKILL mid-run (--no-kill disables;
  // unset = the shard with the largest feed, so the kill window is
  // widest).
  size_t kill_shard = 0;
  bool kill_shard_set = false;
  bool kill = true;
  int days = 4;
  // Supervisor: respawn budget per shard for abnormal exits (the
  // scripted kill spends one).
  size_t max_restarts = 3;
  // Supervisor: heal the scripted kill by promoting the victim's
  // standby directory instead of restarting on the primary.
  bool failover = false;
  // Worker: failovers this shard has been through — names the standby
  // directory, mirroring the cluster's standby-<i>-e<N> scheme.
  size_t standby_epoch = 0;
};

datagen::World BuildWorld() {
  datagen::WorldConfig config;
  config.seed = kWorldSeed;
  config.extent_meters = kWorldExtentMeters;
  config.num_pois = kWorldPois;
  return datagen::WorldGenerator(config).Generate();
}

std::string FeedPath(const Options& options, size_t shard) {
  return options.base_dir + "/feed-" + std::to_string(shard) + ".csv";
}

std::string ProgressPath(const Options& options, size_t shard) {
  return options.base_dir + "/shard-" + std::to_string(shard) + ".progress";
}

// Atomic progress write: tmp + rename, like every other ack marker in
// the tree.
bool WriteProgress(const std::string& path, size_t fed) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << fed << "\n";
    if (!out.flush()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

size_t ReadProgress(const std::string& path) {
  std::ifstream in(path);
  size_t fed = 0;
  if (in) in >> fed;
  return fed;
}

struct FeedLine {
  core::ObjectId object = 0;
  core::GpsPoint fix;
};

std::vector<FeedLine> ReadFeed(const std::string& path) {
  std::vector<FeedLine> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    FeedLine parsed;
    if (std::sscanf(line.c_str(), "%ld,%lf,%lf,%lf", &parsed.object,
                    &parsed.fix.time, &parsed.fix.position.x,
                    &parsed.fix.position.y) == 4) {
      lines.push_back(parsed);
    }
  }
  return lines;
}

// --- worker ----------------------------------------------------------

int RunWorker(const Options& options) {
  datagen::World world = BuildWorld();
  shard::ShardRuntimeConfig config;
  config.shard_id = options.shard;
  config.durable_dir =
      options.base_dir + "/shard-" + std::to_string(options.shard);
  config.standby_dir =
      options.base_dir + "/standby-" + std::to_string(options.shard);
  if (options.standby_epoch > 0) {
    config.standby_dir += "-e" + std::to_string(options.standby_epoch);
  }
  auto runtime = shard::ShardRuntime::Open(
      core::AnnotationModel::Build(&world.regions, &world.roads, &world.pois),
      config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "shardd worker %zu: open failed: %s\n",
                 options.shard, runtime.status().ToString().c_str());
    return 1;
  }

  std::vector<FeedLine> feed = ReadFeed(options.feed);
  size_t start = 0;
  std::string progress = ProgressPath(options, options.shard);
  if (options.resume) {
    start = ReadProgress(progress);
    std::fprintf(stderr, "shardd worker %zu: resuming at %zu/%zu\n",
                 options.shard, start, feed.size());
  }
  for (size_t i = start; i < feed.size(); ++i) {
    auto fed = (*runtime)->Feed(feed[i].object, feed[i].fix);
    if (!fed.ok()) {
      std::fprintf(stderr, "shardd worker %zu: feed %zu failed: %s\n",
                   options.shard, i, fed.status().ToString().c_str());
      return 1;
    }
    if (options.checkpoint_every > 0 &&
        (i + 1) % options.checkpoint_every == 0) {
      common::Status checkpointed = (*runtime)->Checkpoint();
      if (!checkpointed.ok()) {
        std::fprintf(stderr, "shardd worker %zu: checkpoint failed: %s\n",
                     options.shard, checkpointed.ToString().c_str());
        return 1;
      }
      if (!WriteProgress(progress, i + 1)) return 1;
    }
  }
  if (!(*runtime)->CloseAll().ok()) return 1;
  common::Status final_ckpt = (*runtime)->Checkpoint();
  if (!final_ckpt.ok()) return 1;
  if (!WriteProgress(progress, feed.size())) return 1;
  return 0;
}

// --- supervisor ------------------------------------------------------

pid_t SpawnWorker(const char* self, const Options& options, size_t shard,
                  bool resume, size_t standby_epoch) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::string shard_arg = std::to_string(shard);
  std::string every_arg = std::to_string(options.checkpoint_every);
  std::string epoch_arg = std::to_string(standby_epoch);
  std::string feed = FeedPath(options, shard);
  std::vector<const char*> argv = {self,
                                   "--mode=worker",
                                   "--shard",
                                   shard_arg.c_str(),
                                   "--base-dir",
                                   options.base_dir.c_str(),
                                   "--feed",
                                   feed.c_str(),
                                   "--checkpoint-every",
                                   every_arg.c_str(),
                                   "--standby-epoch",
                                   epoch_arg.c_str()};
  if (resume) argv.push_back("--resume");
  argv.push_back(nullptr);
  ::execv(self, const_cast<char* const*>(argv.data()));
  std::perror("shardd: execv");
  std::_Exit(127);
}

// ShardCluster::FailoverShard at the directory level: the primary is
// abandoned (renamed aside so post-mortems can read it) and the
// shipped standby becomes the durable directory. The progress marker
// is dropped with the primary — it may ack fixes the standby never
// received, and at-least-once re-delivery from zero is always safe.
bool PromoteStandby(const Options& options, size_t shard) {
  fs::path primary =
      fs::path(options.base_dir) / ("shard-" + std::to_string(shard));
  fs::path standby =
      fs::path(options.base_dir) / ("standby-" + std::to_string(shard));
  std::error_code ec;
  fs::rename(primary, fs::path(primary.string() + ".lost"), ec);
  if (ec) {
    std::fprintf(stderr, "shardd: cannot abandon %s: %s\n",
                 primary.c_str(), ec.message().c_str());
    return false;
  }
  fs::create_directories(standby, ec);  // an empty standby promotes too
  fs::rename(standby, primary, ec);
  if (ec) {
    std::fprintf(stderr, "shardd: cannot promote %s: %s\n", standby.c_str(),
                 ec.message().c_str());
    return false;
  }
  fs::remove(ProgressPath(options, shard), ec);
  return true;
}

common::Status CopyAllRows(const store::SemanticTrajectoryStore& from,
                           store::SemanticTrajectoryStore* to) {
  for (core::TrajectoryId id : from.ListTrajectories()) {
    auto raw = from.GetRawTrajectory(id);
    if (raw.ok()) {
      SEMITRI_RETURN_IF_ERROR(to->PutRawTrajectory(*raw));
    }
    auto episodes = from.GetEpisodes(id);
    if (episodes.ok()) {
      SEMITRI_RETURN_IF_ERROR(to->PutEpisodes(id, *episodes));
    }
    for (const std::string& interp : from.ListInterpretations(id)) {
      auto annotated = from.GetInterpretation(id, interp);
      if (annotated.ok()) {
        SEMITRI_RETURN_IF_ERROR(to->PutInterpretation(*annotated));
      }
    }
  }
  return common::Status::OK();
}

int RunSupervisor(const char* self, const Options& options) {
  std::error_code ec;
  fs::remove_all(options.base_dir, ec);
  fs::create_directories(options.base_dir, ec);
  if (ec) {
    std::fprintf(stderr, "shardd: cannot create %s\n",
                 options.base_dir.c_str());
    return 1;
  }

  std::fprintf(stderr, "shardd: generating workload...\n");
  datagen::World world = BuildWorld();
  datagen::DatasetFactory factory(&world, kDatasetSeed);
  datagen::Dataset dataset =
      factory.MilanPrivateCars(static_cast<int>(options.shards) * 4,
                               options.days);

  // Ring-partition the feed: the identical pure function every worker
  // could evaluate.
  shard::RingConfig ring_config;
  shard::ConsistentHashRing ring(ring_config);
  for (size_t s = 0; s < options.shards; ++s) ring.AddShard(s);
  std::map<size_t, size_t> feed_sizes;
  {
    std::vector<std::ofstream> feeds;
    for (size_t s = 0; s < options.shards; ++s) {
      feeds.emplace_back(FeedPath(options, s), std::ios::trunc);
    }
    for (const datagen::SimulatedTrack& track : dataset.tracks) {
      size_t shard = ring.ShardForObject(track.object_id);
      for (const core::GpsPoint& fix : track.points) {
        char line[128];
        std::snprintf(line, sizeof(line), "%ld,%.17g,%.17g,%.17g\n",
                      track.object_id, fix.time, fix.position.x,
                      fix.position.y);
        feeds[shard] << line;
        ++feed_sizes[shard];
      }
    }
  }
  size_t kill_shard = options.kill_shard;
  for (size_t s = 0; s < options.shards; ++s) {
    std::fprintf(stderr, "shardd: shard %zu feed: %zu fixes\n", s,
                 feed_sizes[s]);
    if (!options.kill_shard_set && feed_sizes[s] > feed_sizes[kill_shard]) {
      kill_shard = s;
    }
  }

  // The uninterrupted in-process reference.
  store::SemanticTrajectoryStore reference;
  {
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{}, &reference);
    stream::SessionManager manager(&pipeline);
    for (const datagen::SimulatedTrack& track : dataset.tracks) {
      for (const core::GpsPoint& fix : track.points) {
        auto fed = manager.Feed(track.object_id, fix);
        if (!fed.ok()) {
          std::fprintf(stderr, "shardd: reference feed failed\n");
          return 1;
        }
      }
    }
    if (!manager.CloseAll().ok()) return 1;
  }

  std::fprintf(stderr, "shardd: spawning %zu workers...\n", options.shards);
  std::vector<pid_t> workers(options.shards, -1);
  std::vector<size_t> restarts(options.shards, 0);
  std::vector<size_t> epochs(options.shards, 0);
  for (size_t s = 0; s < options.shards; ++s) {
    workers[s] = SpawnWorker(self, options, s, /*resume=*/false,
                             /*standby_epoch=*/0);
  }
  size_t running = options.shards;

  bool killed = false;
  bool workers_ok = true;
  // Which shard the supervision loop should heal by standby promotion
  // (rather than an in-place restart) when it dies.
  size_t failover_shard = options.shards;
  if (options.kill && kill_shard < options.shards) {
    // Wait for the victim's first checkpointed ack, then SIGKILL it —
    // everything acked by then must survive. The supervision loop
    // below reaps the corpse and respawns it.
    std::string progress = ProgressPath(options, kill_shard);
    for (int spin = 0; spin < 20000; ++spin) {
      if (fs::exists(progress, ec)) break;
      int status = 0;
      pid_t reaped = ::waitpid(workers[kill_shard], &status, WNOHANG);
      if (reaped != 0) {
        // Finished before we could kill it.
        workers[kill_shard] = -1;
        --running;
        if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
          std::fprintf(stderr, "shardd: worker %zu failed (status %d)\n",
                       kill_shard, status);
          workers_ok = false;
        }
        break;
      }
      ::usleep(1000);
    }
    if (workers[kill_shard] != -1) {
      ::kill(workers[kill_shard], SIGKILL);
      killed = true;
      if (options.failover) failover_shard = kill_shard;
      std::fprintf(stderr,
                   "shardd: killed worker %zu at acked progress %zu (%s "
                   "will heal it)\n",
                   kill_shard, ReadProgress(progress),
                   options.failover ? "standby promotion"
                                    : "restart with --resume");
    } else {
      std::fprintf(stderr,
                   "shardd: worker %zu finished before the kill window\n",
                   kill_shard);
    }
  }

  // Supervision loop: reap exits; clean ones retire the shard, crashes
  // are healed — restart with --resume (or standby promotion for the
  // scripted failover victim) after a capped-exponential backoff, at
  // most max_restarts times per shard.
  common::RetryPolicyConfig backoff_config;
  backoff_config.max_attempts = options.max_restarts + 1;
  backoff_config.initial_backoff_seconds = 0.05;
  backoff_config.max_backoff_seconds = 1.0;
  common::RetryPolicy backoff(backoff_config);
  while (running > 0) {
    int status = 0;
    pid_t pid = ::waitpid(-1, &status, 0);
    if (pid <= 0) break;
    size_t s = options.shards;
    for (size_t i = 0; i < options.shards; ++i) {
      if (workers[i] == pid) s = i;
    }
    if (s == options.shards) continue;  // not one of ours
    workers[s] = -1;
    --running;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
    if (restarts[s] >= options.max_restarts) {
      std::fprintf(stderr,
                   "shardd: worker %zu failed (status %d), restart budget "
                   "exhausted\n",
                   s, status);
      workers_ok = false;
      continue;
    }
    double pause = backoff.BackoffSeconds(restarts[s], s);
    ++restarts[s];
    ::usleep(static_cast<useconds_t>(pause * 1e6));
    bool promote = s == failover_shard;
    if (promote) {
      failover_shard = options.shards;  // promote once
      if (!PromoteStandby(options, s)) {
        workers_ok = false;
        continue;
      }
      ++epochs[s];
    }
    std::fprintf(stderr,
                 "shardd: worker %zu died (status %d); %s after %.0f ms "
                 "backoff (restart %zu/%zu)\n",
                 s, status,
                 promote ? "promoting standby and re-feeding from zero"
                         : "restarting with --resume",
                 pause * 1e3, restarts[s], options.max_restarts);
    // A promoted standby may predate the progress marker, so the
    // failover respawn replays its whole feed; restored sessions
    // reject the consumed prefix either way.
    workers[s] = SpawnWorker(self, options, s, /*resume=*/!promote,
                             /*standby_epoch=*/epochs[s]);
    ++running;
  }
  if (!workers_ok) return 1;

  std::fprintf(stderr, "shardd: validating durable state...\n");
  store::SemanticTrajectoryStore merged;
  for (size_t s = 0; s < options.shards; ++s) {
    store::SemanticTrajectoryStore recovered;
    auto stats =
        recovered.Recover(options.base_dir + "/shard-" + std::to_string(s));
    if (!stats.ok()) {
      std::fprintf(stderr, "shardd: shard %zu recovery failed: %s\n", s,
                   stats.status().ToString().c_str());
      return 1;
    }
    if (!CopyAllRows(recovered, &merged).ok()) return 1;
  }
  if (!merged.ContentEquals(reference)) {
    std::fprintf(stderr,
                 "shardd: FAIL — merged worker stores diverged from the "
                 "uninterrupted reference (lost or corrupted acknowledged "
                 "fixes)\n");
    return 1;
  }
  std::fprintf(stderr,
               "shardd: OK — %zu shards, %zu objects, %zu records, kill %s, "
               "zero lost acknowledged fixes\n",
               options.shards, dataset.tracks.size(), dataset.TotalRecords(),
               killed ? "injected" : "skipped");
  return 0;
}

int Run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg.rfind("--mode=", 0) == 0) {
      options.mode = arg.substr(7);
    } else if (arg == "--mode") {
      options.mode = next();
    } else if (arg == "--shards") {
      options.shards = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--shard") {
      options.shard = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--base-dir") {
      options.base_dir = next();
    } else if (arg == "--feed") {
      options.feed = next();
    } else if (arg == "--checkpoint-every") {
      options.checkpoint_every = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--kill-shard") {
      options.kill_shard = std::strtoul(next().c_str(), nullptr, 10);
      options.kill_shard_set = true;
    } else if (arg == "--days") {
      options.days = static_cast<int>(std::strtol(next().c_str(), nullptr, 10));
    } else if (arg == "--max-restarts") {
      options.max_restarts = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--standby-epoch") {
      options.standby_epoch = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--failover") {
      options.failover = true;
    } else if (arg == "--no-kill") {
      options.kill = false;
    } else if (arg == "--resume") {
      options.resume = true;
    } else {
      std::fprintf(stderr, "shardd: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.mode == "worker") {
    if (options.feed.empty()) {
      std::fprintf(stderr, "shardd: worker mode needs --feed\n");
      return 2;
    }
    return RunWorker(options);
  }
  if (options.mode == "supervise" || options.mode.empty()) {
    if (options.shards == 0) {
      std::fprintf(stderr, "shardd: need at least one shard\n");
      return 2;
    }
    return RunSupervisor(argv[0], options);
  }
  std::fprintf(stderr, "shardd: unknown mode %s\n", options.mode.c_str());
  return 2;
}

}  // namespace
}  // namespace semitri::shardd

int main(int argc, char** argv) { return semitri::shardd::Run(argc, argv); }
