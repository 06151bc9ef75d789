// Sharded serving soak: many-object churn against an in-process
// shard::ShardCluster — connect/disconnect, live migration waves, ring
// rebalance (AddShard), and a mid-run shard kill/restart — while an
// uninterrupted single-manager run of the same streams serves as the
// convergence reference.
//
// Reported:
//   * live migration latency p50/p99 (pack -> drain -> handoff ->
//     adopt, per object, mid-stream);
//   * recovery time for a killed shard (store WAL replay + manager
//     checkpoint restore) and the cost of the at-least-once re-feed;
//   * rebalance volume when a shard joins the ring;
//   * shed rate under deliberately tight per-shard admission budgets
//     (separate overload pass, not convergence-gated);
//   * the per-shard health rollup (core::HealthSnapshot::shards).
//
// The gate: after all of the above, MergeStores must ContentEquals the
// uninterrupted reference — zero lost acknowledged fixes
// (lost_acknowledged_fixes, a GateZero; CI's shard-soak-smoke leg runs
// `bench_shard_soak smoke` and fails the moment it leaves 0).
//
// A second, chaos pass then replays the identical stream against a
// self-healing cluster (auto_failover + retry_feeds) while a seeded
// shard::ChaosSchedule storms it with kills, extra migrations,
// seal+ship waves and an injected wal_ship failure. Kills heal with no
// help from the bench loop — detection, standby promotion, retrying
// feeds — and the pass has its own convergence gate plus
// time-to-detect / time-to-failover percentiles.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "common/fault_injection.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "shard/chaos.h"
#include "shard/cluster.h"
#include "store/integrity_scrubber.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

using namespace semitri;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  size_t idx = static_cast<size_t>(
      p * static_cast<double>(samples->size() - 1));
  std::nth_element(samples->begin(), samples->begin() + static_cast<long>(idx),
                   samples->end());
  return (*samples)[idx];
}

// Flips one byte in the middle of `path` in place (size unchanged) —
// the silent bit-rot shape only a CRC walk can see.
bool CorruptMiddleByte(const std::string& path) {
  common::Env* env = common::Env::Default();
  std::string data;
  if (!env->ReadFileToString(path, &data).ok() || data.size() < 3) {
    return false;
  }
  data[data.size() / 2] ^= 0x5A;
  return env->WriteStringToFile(path, data, /*sync=*/true).ok();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  // Constructed first, so the record's wall_ns spans every pass.
  benchutil::BenchReporter reporter("shard_soak");
  benchutil::PrintHeader(
      "Shard soak: churn, migration, rebalance, kill/restart",
      "sharded serving runtime (DESIGN.md: shard deployment model)");

  datagen::World world = benchutil::MakeCity(/*seed=*/801,
                                             smoke ? 3000.0 : 6000.0,
                                             smoke ? 500 : 2000);
  datagen::DatasetFactory factory(&world, /*seed=*/802);
  const int kObjects = smoke ? 12 : 32;
  const int kDays = smoke ? 1 : 2;
  datagen::Dataset dataset = factory.MilanPrivateCars(kObjects, kDays);
  const size_t total_points = dataset.TotalRecords();
  size_t longest = 0;
  for (const datagen::SimulatedTrack& t : dataset.tracks) {
    longest = std::max(longest, t.points.size());
  }
  std::printf("corpus: %d cars x %d days, %zu gps records%s\n\n", kObjects,
              kDays, total_points, smoke ? " (smoke)" : "");

  // Both runs execute the identical logical stream: chunked round-robin
  // feeds with a flushing Close for every 3rd object at the
  // disconnect barrier (reconnect = the next feed). Everything the
  // cluster layer adds on top — migration, rebalance, kill/restart,
  // at-least-once re-feeds — must be invisible in the merged stores.
  const size_t kDisconnectAt = longest / 4;
  const size_t kMigrateAt = longest / 2;
  const size_t kKillAt = 3 * longest / 4;
  auto disconnects = [&](size_t object_index) {
    return object_index % 3 == 0;
  };

  // --- uninterrupted reference -----------------------------------------
  store::SemanticTrajectoryStore reference;
  {
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{}, &reference);
    stream::SessionManager manager(&pipeline);
    for (size_t k = 0; k < longest; ++k) {
      for (size_t i = 0; i < dataset.tracks.size(); ++i) {
        const datagen::SimulatedTrack& track = dataset.tracks[i];
        if (k < track.points.size()) {
          auto fed = manager.Feed(track.object_id, track.points[k]);
          if (!fed.ok()) {
            std::fprintf(stderr, "reference feed failed: %s\n",
                         fed.status().ToString().c_str());
            return 1;
          }
        }
        if (k + 1 == kDisconnectAt && disconnects(i)) {
          if (auto status = manager.Close(track.object_id); !status.ok()) {
            std::fprintf(stderr, "reference close failed: %s\n",
                         status.ToString().c_str());
            return 1;
          }
        }
      }
    }
    if (!manager.CloseAll().ok()) return 1;
  }

  // --- the soak --------------------------------------------------------
  std::filesystem::path base_dir =
      std::filesystem::temp_directory_path() /
      ("semitri_bench_shard_soak_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base_dir);
  shard::ShardClusterConfig cluster_config;
  cluster_config.num_shards = smoke ? 3 : 4;
  cluster_config.base_dir = base_dir.string();
  auto opened = shard::ShardCluster::Open(&world.regions, &world.roads,
                                          &world.pois, cluster_config);
  if (!opened.ok()) {
    std::fprintf(stderr, "cluster open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<shard::ShardCluster> cluster = std::move(opened.value());

  std::vector<double> migration_ms;
  double rebalance_ms = 0.0;
  size_t rebalanced_objects = 0;
  double recovery_ms = 0.0;
  double refeed_ms = 0.0;
  size_t refed_fixes = 0;

  auto feed_one = [&](const datagen::SimulatedTrack& track,
                      size_t k) -> bool {
    auto fed = cluster->Feed(track.object_id, track.points[k]);
    if (!fed.ok()) {
      std::fprintf(stderr, "soak feed failed (object %ld, k %zu): %s\n",
                   track.object_id, k, fed.status().ToString().c_str());
      return false;
    }
    return true;
  };

  auto soak_start = std::chrono::steady_clock::now();
  for (size_t k = 0; k < longest; ++k) {
    for (size_t i = 0; i < dataset.tracks.size(); ++i) {
      const datagen::SimulatedTrack& track = dataset.tracks[i];
      if (k < track.points.size() && !feed_one(track, k)) return 1;
      if (k + 1 == kDisconnectAt && disconnects(i)) {
        if (auto status = cluster->CloseObject(track.object_id);
            !status.ok()) {
          std::fprintf(stderr, "soak close failed: %s\n",
                       status.ToString().c_str());
          return 1;
        }
      }
    }

    if (k + 1 == kMigrateAt) {
      // Migration wave: every object still mid-stream hops one shard
      // over — each hop is the full pack/drain/handoff/adopt protocol.
      for (const datagen::SimulatedTrack& track : dataset.tracks) {
        if (track.points.size() <= k + 1) continue;
        shard::ShardId src = cluster->OwnerOf(track.object_id);
        shard::ShardId dest = (src + 1) % cluster->num_shards();
        auto t0 = std::chrono::steady_clock::now();
        if (auto status = cluster->MigrateObject(track.object_id, dest);
            !status.ok()) {
          std::fprintf(stderr, "migration failed: %s\n",
                       status.ToString().c_str());
          return 1;
        }
        migration_ms.push_back(MsSince(t0));
      }
      // A shard joins the ring; everything whose placement moved
      // follows it.
      auto t0 = std::chrono::steady_clock::now();
      auto added = cluster->AddShard();
      if (!added.ok()) {
        std::fprintf(stderr, "add shard failed: %s\n",
                     added.status().ToString().c_str());
        return 1;
      }
      rebalance_ms = MsSince(t0);
      rebalanced_objects = *added;
    }

    if (k + 1 == kKillAt) {
      // Ack everything, SIGKILL the busiest shard, and recover it. The
      // driver then re-feeds the victim's objects from the start of
      // their streams — the restored sessions reject the already-
      // consumed prefix per-fix (at-least-once redelivery is
      // idempotent) and resume exactly at their checkpointed cursors.
      if (auto status = cluster->CheckpointAll(); !status.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::vector<size_t> owned(cluster->num_shards(), 0);
      for (const datagen::SimulatedTrack& track : dataset.tracks) {
        ++owned[cluster->OwnerOf(track.object_id)];
      }
      shard::ShardId victim = 0;
      for (size_t s = 1; s < owned.size(); ++s) {
        if (owned[s] > owned[victim]) victim = s;
      }
      if (auto status = cluster->KillShard(victim); !status.ok()) {
        std::fprintf(stderr, "kill failed: %s\n", status.ToString().c_str());
        return 1;
      }
      auto t0 = std::chrono::steady_clock::now();
      if (auto status = cluster->RestartShard(victim); !status.ok()) {
        std::fprintf(stderr, "restart failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      recovery_ms = MsSince(t0);
      auto t1 = std::chrono::steady_clock::now();
      for (const datagen::SimulatedTrack& track : dataset.tracks) {
        if (cluster->OwnerOf(track.object_id) != victim) continue;
        for (size_t r = 0; r <= std::min(k, track.points.size() - 1); ++r) {
          if (!feed_one(track, r)) return 1;
          ++refed_fixes;
        }
      }
      refeed_ms = MsSince(t1);
    }
  }
  if (auto status = cluster->CloseAll(); !status.ok()) {
    std::fprintf(stderr, "soak close-all failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  double soak_seconds = MsSince(soak_start) / 1e3;

  // Residual replication lag after a final seal+ship should be zero.
  auto shipped = cluster->SealAndShipAll();
  if (!shipped.ok()) {
    std::fprintf(stderr, "seal+ship failed: %s\n",
                 shipped.status().ToString().c_str());
    return 1;
  }

  // --- convergence gate -------------------------------------------------
  store::SemanticTrajectoryStore merged;
  if (auto status = cluster->MergeStores(&merged); !status.ok()) {
    std::fprintf(stderr, "merge failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const bool converged = merged.ContentEquals(reference);
  shard::ShardCluster::Stats stats = cluster->stats();
  core::HealthSnapshot health = cluster->Health();

  double migration_p50 = Percentile(&migration_ms, 0.50);
  double migration_p99 = Percentile(&migration_ms, 0.99);
  std::printf("soak:            %9.0f points/s  (%.3f s total)\n",
              static_cast<double>(total_points) / soak_seconds, soak_seconds);
  std::printf("migrations:      %zu completed, %zu aborted   "
              "p50 %8.3f ms   p99 %8.3f ms\n",
              stats.migrations_completed, stats.migrations_aborted,
              migration_p50, migration_p99);
  std::printf("rebalance:       %zu objects followed the new shard "
              "(%.3f ms)\n",
              rebalanced_objects, rebalance_ms);
  std::printf("kill/restart:    recovery %8.3f ms, re-feed of %zu fixes "
              "%8.3f ms\n",
              recovery_ms, refed_fixes, refeed_ms);
  std::printf("wal shipping:    %zu segments / %zu bytes shipped\n",
              shipped->segments_shipped, shipped->bytes_shipped);
  std::printf("convergence:     %s\n\n",
              converged ? "merged == uninterrupted reference"
                        : "DIVERGED (lost acknowledged fixes)");
  std::printf("per-shard rollup:\n");
  for (const core::ShardHealth& shard : health.shards) {
    std::printf("  shard %zu: %s, %zu live sessions, %zu buffered fixes, "
                "ship lag %zu segments\n",
                shard.shard_id, shard.alive ? "alive" : "DEAD",
                shard.live_sessions, shard.buffered_fixes,
                shard.wal_ship_lag_segments);
  }

  // --- overload pass (not convergence-gated) ----------------------------
  // The same corpus against deliberately tight per-shard admission
  // budgets: how often the cluster sheds, and what survives. Shedding
  // changes trajectory segmentation, so this pass uses its own
  // directories and no reference comparison.
  size_t overload_shed = 0;
  size_t overload_rejected = 0;
  double overload_seconds = 0.0;
  {
    std::filesystem::path overload_dir =
        std::filesystem::temp_directory_path() /
        ("semitri_bench_shard_overload_" + std::to_string(::getpid()));
    std::filesystem::remove_all(overload_dir);
    shard::ShardClusterConfig config;
    config.num_shards = smoke ? 3 : 4;
    config.base_dir = overload_dir.string();
    config.ship_wal = false;
    config.manager.admission.max_sessions =
        std::max<size_t>(1, static_cast<size_t>(kObjects) /
                                (config.num_shards * 3));
    auto overload_opened = shard::ShardCluster::Open(
        &world.regions, &world.roads, &world.pois, config);
    if (!overload_opened.ok()) return 1;
    std::unique_ptr<shard::ShardCluster> overloaded =
        std::move(overload_opened.value());
    const size_t kChunk = 200;
    auto start = std::chrono::steady_clock::now();
    for (size_t base = 0; base < longest; base += kChunk) {
      for (const datagen::SimulatedTrack& track : dataset.tracks) {
        for (size_t k = base;
             k < std::min(base + kChunk, track.points.size()); ++k) {
          auto fed = overloaded->Feed(track.object_id, track.points[k]);
          if (!fed.ok()) ++overload_rejected;  // shed/reject is the point
        }
      }
    }
    if (!overloaded->CloseAll().ok()) return 1;
    overload_seconds = MsSince(start) / 1e3;
    core::HealthSnapshot overload_health = overloaded->Health();
    overload_shed = overload_health.sessions_shed;
    overloaded.reset();
    std::filesystem::remove_all(overload_dir);
  }
  double shed_per_1k =
      static_cast<double>(overload_shed) * 1000.0 /
      static_cast<double>(total_points);
  std::printf("\noverloaded:      %9.0f points/s  (%zu sheds = %.2f per 1k "
              "fixes, %zu rejected feeds)\n",
              static_cast<double>(total_points) / overload_seconds,
              overload_shed, shed_per_1k, overload_rejected);

  // --- chaos pass (convergence-gated) -----------------------------------
  // The identical logical stream against a self-healing cluster while a
  // seeded ChaosSchedule storms it. Kills are healed entirely by the
  // cluster — detection walks the dead slot to kDead, auto failover
  // promotes the standby, and retrying feeds ride the outage out — the
  // driver only acks (drain + checkpoint) right before each kill and
  // re-delivers the victim's prefix afterwards, which the restored
  // sessions must reject per-fix (at-least-once idempotence). Because
  // replication is drained at the ack, the promoted standby resumes
  // exactly there and the convergence gate stays exact: zero lost
  // acknowledged fixes, not "zero beyond lag".
  shard::ChaosScheduleConfig chaos_config;
  chaos_config.seed = 1234;
  chaos_config.num_steps = longest;
  chaos_config.num_shards = cluster_config.num_shards;
  chaos_config.num_objects = dataset.tracks.size();
  chaos_config.kills = smoke ? 2 : 3;
  chaos_config.migrations = smoke ? 2 : 4;
  chaos_config.seal_ships = 2;
  chaos_config.ship_faults = 1;
  chaos_config.min_kill_spacing = std::max<size_t>(8, longest / 8);
  shard::ChaosSchedule storm = shard::ChaosSchedule::Generate(chaos_config);

  bool chaos_converged = false;
  size_t chaos_kills_executed = 0;
  size_t chaos_migrations_requested = 0;
  size_t chaos_refed_fixes = 0;
  size_t chaos_refed_accepted = 0;
  size_t chaos_reshipped_corrupt = 0;
  double chaos_seconds = 0.0;
  shard::ShardCluster::Stats chaos_stats;
  // Scrub-chaos leg: one shipped sealed segment gets a mid-soak bit
  // flip; the shard's integrity scrubber must detect it and repair it
  // from the standby copy without quarantining anything — and without
  // disturbing the convergence gate.
  bool scrub_planted = false;
  size_t scrub_ticks_to_repair = 0;
  size_t scrub_detected_delta = 0;
  size_t scrub_repaired_delta = 0;
  core::HealthSnapshot chaos_health;
  {
    std::filesystem::path chaos_dir =
        std::filesystem::temp_directory_path() /
        ("semitri_bench_shard_chaos_" + std::to_string(::getpid()));
    std::filesystem::remove_all(chaos_dir);
    shard::ShardClusterConfig config;
    config.num_shards = chaos_config.num_shards;
    config.base_dir = chaos_dir.string();
    config.auto_failover = true;
    config.retry_feeds = true;
    // Probe on every tick; three straight failures declare death. The
    // retry budget covers the whole detect -> promote walk (each
    // backoff ticks the detector once) with room to spare.
    config.detector.probe_interval_seconds = 0.0;
    config.detector.suspect_after = 1;
    config.detector.dead_after = 3;
    config.feed_retry.max_attempts = 8;
    config.feed_retry.initial_backoff_seconds = 0.001;
    config.feed_retry.max_backoff_seconds = 0.01;
    auto chaos_opened = shard::ShardCluster::Open(&world.regions,
                                                  &world.roads, &world.pois,
                                                  config);
    if (!chaos_opened.ok()) {
      std::fprintf(stderr, "chaos cluster open failed: %s\n",
                   chaos_opened.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<shard::ShardCluster> chaos =
        std::move(chaos_opened.value());

    std::printf("\nchaos schedule (seed %llu):\n%s",
                static_cast<unsigned long long>(chaos_config.seed),
                storm.ToString().c_str());

    // Drains replication to zero lag; retried because an armed
    // wal_ship fault may eat the first attempt, and a fresh
    // CheckpointAll afterwards re-ships the manager sidecar so the
    // standby pair (ckpt, WAL) sits exactly at the ack.
    auto ack_all = [&]() -> bool {
      for (int round = 0; round < 3; ++round) {
        auto drained = chaos->SealAndShipAll();
        if (!drained.ok()) continue;  // injected ship fault: retry
        if (auto status = chaos->CheckpointAll(); !status.ok()) {
          std::fprintf(stderr, "chaos checkpoint failed: %s\n",
                       status.ToString().c_str());
          return false;
        }
        size_t lag = 0;
        for (const core::ShardHealth& shard : chaos->Health().shards) {
          lag += shard.wal_ship_lag_segments;
        }
        if (lag == 0) return true;
      }
      std::fprintf(stderr, "chaos ack could not drain replication lag\n");
      return false;
    };

    // Victims awaiting their post-heal at-least-once re-delivery:
    // (object index, ack step) pairs recorded at kill time.
    std::vector<std::pair<size_t, size_t>> pending_refeed;
    auto chaos_feed = [&](const datagen::SimulatedTrack& track,
                          size_t k) -> bool {
      auto fed = chaos->Feed(track.object_id, track.points[k]);
      if (!fed.ok()) {
        std::fprintf(stderr, "chaos feed failed (object %ld, k %zu): %s\n",
                     track.object_id, k, fed.status().ToString().c_str());
        return false;
      }
      return true;
    };

    auto chaos_start = std::chrono::steady_clock::now();
    for (size_t k = 0; k < longest; ++k) {
      for (const shard::ChaosEvent& event : storm.EventsAt(k)) {
        switch (event.kind) {
          case shard::ChaosKind::kKill: {
            shard::ShardId victim = event.shard;
            if (chaos->runtime(victim) == nullptr) break;  // still healing
            if (!ack_all()) return 1;
            for (size_t i = 0; i < dataset.tracks.size(); ++i) {
              if (chaos->OwnerOf(dataset.tracks[i].object_id) == victim) {
                pending_refeed.emplace_back(i, k);
              }
            }
            if (auto status = chaos->KillShard(victim); !status.ok()) {
              std::fprintf(stderr, "chaos kill failed: %s\n",
                           status.ToString().c_str());
              return 1;
            }
            ++chaos_kills_executed;
            break;
          }
          case shard::ChaosKind::kMigrate: {
            const datagen::SimulatedTrack& track =
                dataset.tracks[event.object_index % dataset.tracks.size()];
            if (k >= track.points.size()) break;  // stream already over
            shard::ShardId src = chaos->OwnerOf(track.object_id);
            shard::ShardId dest = (src + 1) % chaos->num_shards();
            if (chaos->runtime(src) == nullptr ||
                chaos->runtime(dest) == nullptr) {
              break;  // an endpoint is mid-failover; skip this one
            }
            ++chaos_migrations_requested;
            if (auto status = chaos->MigrateObject(track.object_id, dest);
                !status.ok()) {
              std::fprintf(stderr, "chaos migration aborted: %s\n",
                           status.ToString().c_str());
            }
            break;
          }
          case shard::ChaosKind::kSealShip: {
            // May fail if a ship fault is armed; the lag drains later.
            if (auto drained = chaos->SealAndShipAll(); !drained.ok()) {
              std::fprintf(stderr, "chaos seal+ship deferred: %s\n",
                           drained.status().ToString().c_str());
              break;
            }
            if (scrub_planted) break;
            // Bit-rot storm: flip a byte in the first sealed segment
            // that has a shipped standby copy, then drive that shard's
            // scrubber through one full walk. Detection + repair must
            // land within the cycle; the repaired bytes keep the later
            // failovers (and the convergence gate) exact.
            for (size_t s = 0; s < chaos->num_shards() && !scrub_planted;
                 ++s) {
              auto runtime = chaos->runtime(static_cast<shard::ShardId>(s));
              if (runtime == nullptr || runtime->scrubber() == nullptr) {
                continue;
              }
              const std::string& durable = runtime->config().durable_dir;
              const std::string& standby = runtime->config().standby_dir;
              for (const std::string& name :
                   store::SemanticTrajectoryStore::ListSealedWalSegments(
                       durable)) {
                if (!common::Env::Default()->FileExists(standby + "/" +
                                                        name)) {
                  continue;
                }
                if (!CorruptMiddleByte(durable + "/" + name)) continue;
                scrub_planted = true;
                const store::IntegrityScrubber::Counters before =
                    runtime->scrubber()->counters();
                // Two completed cycles bound "one full scrub cycle
                // after the corruption": the walk in progress may have
                // already passed the file.
                while (runtime->scrubber()->counters().cycles_completed <
                           before.cycles_completed + 2 &&
                       scrub_ticks_to_repair < 64) {
                  if (auto st = runtime->ScrubTick(); !st.ok()) {
                    std::fprintf(stderr, "scrub tick failed: %s\n",
                                 st.ToString().c_str());
                    return 1;
                  }
                  ++scrub_ticks_to_repair;
                  const store::IntegrityScrubber::Counters& now =
                      runtime->scrubber()->counters();
                  if (now.repaired > before.repaired) break;
                }
                const store::IntegrityScrubber::Counters after =
                    runtime->scrubber()->counters();
                scrub_detected_delta =
                    after.corrupt_detected - before.corrupt_detected;
                scrub_repaired_delta = after.repaired - before.repaired;
                break;
              }
            }
            break;
          }
          case shard::ChaosKind::kShipFault: {
            common::FaultInjector::Global().Arm(
                "wal_ship", common::FaultPolicy::FailOnce());
            break;
          }
        }
      }

      for (size_t i = 0; i < dataset.tracks.size(); ++i) {
        const datagen::SimulatedTrack& track = dataset.tracks[i];
        if (k < track.points.size() && !chaos_feed(track, k)) return 1;
        if (k + 1 == kDisconnectAt && disconnects(i)) {
          if (auto status = chaos->CloseObject(track.object_id);
              !status.ok()) {
            std::fprintf(stderr, "chaos close failed: %s\n",
                         status.ToString().c_str());
            return 1;
          }
        }
      }

      // One external detector pass per step: a victim no feed touched
      // this step still walks alive -> suspect -> dead -> promoted.
      if (auto ticked = chaos->Tick(); !ticked.ok()) {
        std::fprintf(stderr, "chaos tick failed: %s\n",
                     ticked.status().ToString().c_str());
        return 1;
      }

      // Once a victim's slot is live again (auto failover completed),
      // re-deliver its owners' acked prefixes. The promoted sessions
      // sit exactly at the ack, so every one of these fixes must come
      // back rejected — divergence here would fail the gate below.
      if (!pending_refeed.empty()) {
        std::vector<std::pair<size_t, size_t>> still_pending;
        for (const auto& [object_index, ack_step] : pending_refeed) {
          const datagen::SimulatedTrack& track =
              dataset.tracks[object_index];
          if (chaos->runtime(chaos->OwnerOf(track.object_id)) == nullptr) {
            still_pending.emplace_back(object_index, ack_step);
            continue;
          }
          size_t upto = std::min(ack_step, track.points.size());
          for (size_t r = 0; r < upto; ++r) {
            auto fed = chaos->Feed(track.object_id, track.points[r]);
            if (!fed.ok()) {
              std::fprintf(stderr, "chaos re-feed failed: %s\n",
                           fed.status().ToString().c_str());
              return 1;
            }
            ++chaos_refed_fixes;
            if (fed->accepted) ++chaos_refed_accepted;
          }
        }
        pending_refeed = std::move(still_pending);
      }
    }
    if (!pending_refeed.empty()) {
      std::fprintf(stderr, "chaos storm left a shard unhealed\n");
      return 1;
    }
    if (auto status = chaos->CloseAll(); !status.ok()) {
      std::fprintf(stderr, "chaos close-all failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    if (!ack_all()) return 1;  // final drain (eats any armed ship fault)
    chaos_seconds = MsSince(chaos_start) / 1e3;

    store::SemanticTrajectoryStore chaos_merged;
    if (auto status = chaos->MergeStores(&chaos_merged); !status.ok()) {
      std::fprintf(stderr, "chaos merge failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    chaos_converged = chaos_merged.ContentEquals(reference);
    chaos_stats = chaos->stats();
    chaos_health = chaos->Health();
    for (size_t s = 0; s < chaos->num_shards(); ++s) {
      if (auto runtime = chaos->runtime(static_cast<shard::ShardId>(s));
          runtime != nullptr && runtime->shipper() != nullptr) {
        chaos_reshipped_corrupt +=
            runtime->shipper()->total_reshipped_corrupt();
      }
    }
    chaos.reset();
    std::filesystem::remove_all(chaos_dir);
  }

  std::vector<double> ttd_ms, ttf_ms;
  for (double s : chaos_stats.time_to_detect_seconds) {
    ttd_ms.push_back(s * 1e3);
  }
  for (double s : chaos_stats.time_to_failover_seconds) {
    ttf_ms.push_back(s * 1e3);
  }
  double ttd_p50 = Percentile(&ttd_ms, 0.50);
  double ttd_p99 = Percentile(&ttd_ms, 0.99);
  double ttf_p50 = Percentile(&ttf_ms, 0.50);
  double ttf_p99 = Percentile(&ttf_ms, 0.99);
  std::printf("chaos:           %9.0f points/s  (%.3f s total)\n",
              static_cast<double>(total_points) / chaos_seconds,
              chaos_seconds);
  std::printf("chaos kills:     %zu executed -> %zu failovers completed, "
              "%zu aborted, %zu deaths declared\n",
              chaos_kills_executed, chaos_stats.failovers_completed,
              chaos_stats.failovers_aborted,
              chaos_stats.detector_deaths_declared);
  std::printf("time to detect:  p50 %8.3f ms   p99 %8.3f ms\n", ttd_p50,
              ttd_p99);
  std::printf("time to failover:p50 %8.3f ms   p99 %8.3f ms\n", ttf_p50,
              ttf_p99);
  std::printf("chaos feeds:     %zu retried, %zu recovered, %zu rejected "
              "attempts\n",
              chaos_stats.feeds_retried, chaos_stats.feeds_recovered,
              chaos_stats.feeds_rejected_dead_shard);
  std::printf("chaos re-feeds:  %zu delivered, %zu accepted (0 = promoted "
              "standbys sat exactly at the ack)\n",
              chaos_refed_fixes, chaos_refed_accepted);
  std::printf("chaos loss:      %zu unshipped segments, %zu tail bytes "
              "abandoned; %zu corrupt standby copies re-shipped\n",
              chaos_stats.failover_lost_segments,
              chaos_stats.failover_lost_tail_bytes, chaos_reshipped_corrupt);
  std::printf("chaos scrub:     %s; %zu scanned, %zu corrupt, %zu repaired, "
              "%zu quarantined (%zu ticks to repair the planted rot)\n",
              scrub_planted ? "1 sealed segment bit-flipped mid-soak"
                            : "no shipped segment to corrupt",
              chaos_health.scrub_files_scanned,
              chaos_health.scrub_corrupt_detected,
              chaos_health.scrub_repaired, chaos_health.scrub_quarantined,
              scrub_ticks_to_repair);
  std::printf("chaos converge:  %s\n",
              chaos_converged ? "merged == uninterrupted reference"
                              : "DIVERGED (lost acknowledged fixes)");

  // --- machine-readable record ------------------------------------------
  reporter.Metric("smoke", static_cast<size_t>(smoke ? 1 : 0));
  reporter.Metric("gps_records", total_points);
  reporter.Metric("num_shards", cluster_config.num_shards);
  // A smoke soak feeds a few hundred fixes in milliseconds, so its rate
  // reads scheduler noise; only full runs record it.
  if (!smoke) {
    reporter.Metric("soak_points_per_s",
                    static_cast<double>(total_points) / soak_seconds);
  }
  reporter.Metric("migrations_completed", stats.migrations_completed);
  reporter.Metric("migrations_aborted", stats.migrations_aborted);
  reporter.Metric("migration_p50_ms", migration_p50);
  reporter.Metric("migration_p99_ms", migration_p99);
  reporter.Metric("rebalanced_objects", rebalanced_objects);
  reporter.Metric("rebalance_ms", rebalance_ms);
  reporter.Metric("recovery_ms", recovery_ms);
  reporter.Metric("refed_fixes", refed_fixes);
  reporter.Metric("refeed_ms", refeed_ms);
  reporter.Metric("shipped_segments", shipped->segments_shipped);
  reporter.Metric("shipped_bytes", shipped->bytes_shipped);
  reporter.Metric("overload_sessions_shed", overload_shed);
  reporter.Metric("overload_shed_per_1k_fixes", shed_per_1k);
  reporter.Metric("overload_rejected_feeds", overload_rejected);
  for (const core::ShardHealth& shard : health.shards) {
    std::string prefix = "shard" + std::to_string(shard.shard_id) + "_";
    reporter.Metric(prefix + "alive", static_cast<size_t>(shard.alive));
    reporter.Metric(prefix + "live_sessions", shard.live_sessions);
    reporter.Metric(prefix + "ship_lag_segments",
                    shard.wal_ship_lag_segments);
  }
  reporter.Metric("chaos_seed", chaos_config.seed);
  reporter.Metric("chaos_points_per_s",
                  static_cast<double>(total_points) / chaos_seconds);
  reporter.Metric("chaos_kills_executed", chaos_kills_executed);
  reporter.Metric("chaos_migrations_requested", chaos_migrations_requested);
  reporter.Metric("chaos_failovers_completed",
                  chaos_stats.failovers_completed);
  reporter.Metric("chaos_failovers_aborted", chaos_stats.failovers_aborted);
  reporter.Metric("chaos_deaths_declared",
                  chaos_stats.detector_deaths_declared);
  reporter.Metric("time_to_detect_p50_ms", ttd_p50);
  reporter.Metric("time_to_detect_p99_ms", ttd_p99);
  reporter.Metric("time_to_failover_p50_ms", ttf_p50);
  reporter.Metric("time_to_failover_p99_ms", ttf_p99);
  reporter.Metric("chaos_feeds_retried", chaos_stats.feeds_retried);
  reporter.Metric("chaos_feeds_recovered", chaos_stats.feeds_recovered);
  reporter.Metric("chaos_refed_fixes", chaos_refed_fixes);
  reporter.Metric("chaos_refed_accepted", chaos_refed_accepted);
  reporter.Metric("chaos_failover_lost_segments",
                  chaos_stats.failover_lost_segments);
  reporter.Metric("chaos_failover_lost_tail_bytes",
                  chaos_stats.failover_lost_tail_bytes);
  reporter.Metric("chaos_reshipped_corrupt_segments", chaos_reshipped_corrupt);
  reporter.Metric("scrub_files_scanned", chaos_health.scrub_files_scanned);
  reporter.Metric("scrub_corrupt_detected",
                  chaos_health.scrub_corrupt_detected);
  reporter.Metric("scrub_repaired", chaos_health.scrub_repaired);
  reporter.Metric("scrub_cycles_completed",
                  chaos_health.scrub_cycles_completed);
  reporter.Metric("scrub_ticks_to_repair", scrub_ticks_to_repair);
  // The invariants that must hold in every run, smoke or full: nothing
  // acknowledged may be lost (in either pass), every sealed segment
  // must have shipped by the end, and a storm with kills must have
  // healed through actual failovers (not silently skipped them).
  reporter.GateZero("lost_acknowledged_fixes",
                    static_cast<size_t>(converged ? 0 : 1));
  size_t residual_lag = 0;
  for (const core::ShardHealth& shard : cluster->Health().shards) {
    residual_lag += shard.wal_ship_lag_segments;
  }
  reporter.GateZero("residual_ship_lag_segments", residual_lag);
  reporter.GateZero("chaos_lost_acknowledged_fixes",
                    static_cast<size_t>(chaos_converged ? 0 : 1));
  reporter.GateZero(
      "chaos_failovers_missing",
      static_cast<size_t>(
          (chaos_kills_executed > 0 && chaos_stats.failovers_completed == 0)
              ? 1
              : 0));
  // Scrub-chaos gates: the bit flip must have been planted (a storm
  // that never had a shipped segment to rot would quietly skip the
  // whole leg), detected AND repaired within the driven cycle, with
  // nothing quarantined — a quarantine here means the standby copy
  // could not repair what it verifiably held.
  reporter.GateZero("scrub_corruption_not_planted",
                    static_cast<size_t>(scrub_planted ? 0 : 1));
  reporter.GateZero("scrub_corruption_missed",
                    static_cast<size_t>(
                        (scrub_planted && scrub_detected_delta == 0) ? 1 : 0));
  reporter.GateZero("scrub_corruption_unrepaired",
                    static_cast<size_t>(
                        (scrub_planted && scrub_repaired_delta == 0) ? 1 : 0));
  reporter.GateZero("scrub_quarantined", chaos_health.scrub_quarantined);

  cluster.reset();
  std::filesystem::remove_all(base_dir);
  return (reporter.Write() && converged && chaos_converged) ? 0 : 1;
}
