// Streaming annotation throughput & latency: how fast the online
// subsystem (stream::SessionManager over a shared pipeline) ingests a
// multi-object GPS feed, and how long a closed episode waits for its
// provisional annotation pass.
//
// Reported:
//   * ingest throughput (points/s) for the live path vs. the offline
//     batch ProcessStream on the same corpus;
//   * per-episode annotation latency p50/p99 (close -> annotated, the
//     paper's §1.2 "annotation in real-time" requirement);
//   * per-trajectory finalization latency p50/p99;
//   * WAL durability overhead: the live pass repeated with the store in
//     durable mode (every Put framed into the write-ahead log, one
//     checkpoint at the end) vs. the in-memory baseline;
//   * exact WAL bytes per fix, live vs. offline, on the same corpus and
//     over an episodes-per-trajectory sweep of taxi shifts (1 s
//     sampling, longer shift = more episodes per trajectory). Live
//     sessions log only the rows past their watermarks, so their WAL
//     stays within a constant factor of offline's however many
//     episodes a trajectory has; the gated offline_over_live_wal_bytes
//     ratios fail the perf gate if per-episode rewriting of the prefix
//     creeps back;
//   * the offline store's checkpoint: exact snapshot bytes per fix,
//     Checkpoint() and Recover() wall time, and the recovered store's
//     equality. A snapshot holds the same row-0 records as the
//     offline WAL, so the gated offline_wal_over_checkpoint_bytes ratio
//     reads 1 and fails the perf gate if a bulkier checkpoint format
//     returns.
//
// `bench_stream_throughput smoke` runs a scaled-down corpus for CI.
// Machine-readable numbers (throughputs, WAL overhead, kernel speedup,
// steady-state allocation gate) are written to
// BENCH_stream_throughput.json (see benchutil::BenchReporter).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <cmath>
#include <limits>

#include "analytics/latency_profiler.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "hmm/hmm.h"
#include "stream/annotation_session.h"
#include "core/pipeline.h"
#include "datagen/presets.h"
#include "store/semantic_trajectory_store.h"
#include "stream/session_manager.h"

using namespace semitri;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}


// Pre-refactor Viterbi over nested-vector delta/psi rows, kept verbatim
// as the scalar reference for the kernel_speedup gate — the per-row
// allocations and double-indirect walks the flat EmissionMatrix +
// arena-backed decode replaced. Returns the path log-probability as a
// checksum.
double ReferenceViterbiScalar(const hmm::HmmModel& model,
                              const hmm::EmissionMatrix& emissions) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto safe_log = [](double p) { return p > 0.0 ? std::log(p) : kNegInf; };
  const size_t n = model.num_states();
  const size_t t_max = emissions.rows();
  if (t_max == 0) return 0.0;
  auto row_emission = [&](size_t t, size_t i) {
    double sum = 0.0;
    for (double e : emissions.Row(t)) sum += e;
    if (sum <= 0.0) return 1.0 / static_cast<double>(n);
    return emissions.At(t, i);
  };
  std::vector<std::vector<double>> delta(t_max, std::vector<double>(n));
  std::vector<std::vector<size_t>> psi(t_max, std::vector<size_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    delta[0][i] = safe_log(model.initial[i]) + safe_log(row_emission(0, i));
  }
  for (size_t t = 1; t < t_max; ++t) {
    for (size_t j = 0; j < n; ++j) {
      double best = kNegInf;
      size_t best_i = 0;
      for (size_t i = 0; i < n; ++i) {
        double v = delta[t - 1][i] + safe_log(model.transition[i][j]);
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      delta[t][j] = best + safe_log(row_emission(t, j));
      psi[t][j] = best_i;
    }
  }
  double best = kNegInf;
  for (size_t i = 0; i < n; ++i) best = std::max(best, delta[t_max - 1][i]);
  return best;
}

// Bytes in the active WAL of a durable store directory.
size_t WalBytes(const std::filesystem::path& dir) {
  std::error_code ec;
  uintmax_t bytes = std::filesystem::file_size(dir / "wal.log", ec);
  return ec ? 0 : static_cast<size_t>(bytes);
}

std::filesystem::path ScratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("semitri_bench_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// One corpus through the offline pipeline and, fix by fix round-robin,
// through a SessionManager, each into its own durable store: wall time
// and exact WAL bytes of both, and whether the stores agree. The
// offline store is then checkpointed and recovered into a fresh store.
struct WalComparison {
  double offline_seconds = 0.0;
  double live_seconds = 0.0;
  size_t offline_wal_bytes = 0;
  size_t live_wal_bytes = 0;
  size_t episodes_closed = 0;
  size_t trajectories = 0;
  bool stores_equal = false;
  size_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0.0;
  double recover_seconds = 0.0;
  bool recovered_equal = false;
};

bool CompareWal(const datagen::World& world, const datagen::Dataset& corpus,
                WalComparison* out) {
  std::filesystem::path offline_dir = ScratchDir("offline_wal");
  std::filesystem::path live_dir = ScratchDir("live_wal");
  store::StoreConfig offline_config;
  offline_config.durable_dir = offline_dir.string();
  store::SemanticTrajectoryStore offline(offline_config);
  store::StoreConfig live_config;
  live_config.durable_dir = live_dir.string();
  store::SemanticTrajectoryStore live(live_config);
  bool ok = true;
  {
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{}, &offline);
    auto start = std::chrono::steady_clock::now();
    for (const datagen::SimulatedTrack& track : corpus.tracks) {
      ok = ok && pipeline
                     .ProcessStream(track.object_id, track.points,
                                    static_cast<core::TrajectoryId>(
                                        track.object_id) *
                                        1000)
                     .ok();
    }
    ok = ok && offline.Sync().ok();
    out->offline_seconds = SecondsSince(start);
  }
  {
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{}, &live);
    stream::SessionManager manager(&pipeline);
    size_t longest = 0;
    for (const datagen::SimulatedTrack& t : corpus.tracks) {
      longest = std::max(longest, t.points.size());
    }
    auto start = std::chrono::steady_clock::now();
    for (size_t k = 0; k < longest && ok; ++k) {
      for (const datagen::SimulatedTrack& track : corpus.tracks) {
        if (k < track.points.size()) {
          ok = ok && manager.Feed(track.object_id, track.points[k]).ok();
        }
      }
    }
    ok = ok && manager.CloseAll().ok() && live.Sync().ok();
    out->live_seconds = SecondsSince(start);
    out->episodes_closed = manager.stats().episodes_closed;
    out->trajectories = manager.stats().trajectories_closed;
  }
  out->offline_wal_bytes = WalBytes(offline_dir);
  out->live_wal_bytes = WalBytes(live_dir);
  out->stores_equal = live.ContentEquals(offline);
  {
    auto start = std::chrono::steady_clock::now();
    ok = ok && offline.Checkpoint().ok();
    out->checkpoint_seconds = SecondsSince(start);
    auto snapshot =
        store::SemanticTrajectoryStore::CurrentSnapshot(offline_dir.string());
    out->checkpoint_bytes = snapshot.ok() ? snapshot->bytes : 0;
    store::SemanticTrajectoryStore recovered;
    start = std::chrono::steady_clock::now();
    ok = ok && recovered.Recover(offline_dir.string()).ok();
    out->recover_seconds = SecondsSince(start);
    out->recovered_equal = recovered.ContentEquals(offline);
  }
  std::filesystem::remove_all(offline_dir);
  std::filesystem::remove_all(live_dir);
  if (!ok) std::fprintf(stderr, "wal comparison run failed\n");
  return ok;
}

void PrintSummary(const char* label,
                  const analytics::LatencyProfiler::StageSummary& s) {
  std::printf("  %-28s %7zu samples   p50 %9.3f ms   p99 %9.3f ms   "
              "mean %9.3f ms\n",
              label, s.count, s.p50 * 1e3, s.p99 * 1e3, s.mean * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  benchutil::PrintHeader(
      "Streaming annotation throughput & episode latency",
      "Sec 1.2 real-time requirement; offline batch as baseline");

  datagen::World world = benchutil::MakeCity(/*seed=*/771,
                                             smoke ? 3000.0 : 6000.0,
                                             smoke ? 500 : 3000);
  datagen::DatasetFactory factory(&world, /*seed=*/772);
  const int kUsers = smoke ? 2 : 6;
  const int kDays = smoke ? 1 : 7;
  datagen::Dataset people = factory.NokiaPeople(kUsers, kDays);
  size_t total_points = people.TotalRecords();
  std::printf("corpus: %d users x %d days, %zu gps records%s\n\n", kUsers,
              kDays, total_points, smoke ? " (smoke)" : "");

  // --- offline baseline -------------------------------------------------
  double offline_seconds = 0.0;
  {
    store::SemanticTrajectoryStore store;
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{}, &store);
    auto start = std::chrono::steady_clock::now();
    for (const datagen::SimulatedTrack& track : people.tracks) {
      auto results = pipeline.ProcessStream(
          track.object_id, track.points,
          static_cast<core::TrajectoryId>(track.object_id) * 1000);
      if (!results.ok()) {
        std::fprintf(stderr, "offline pipeline failed: %s\n",
                     results.status().ToString().c_str());
        return 1;
      }
    }
    offline_seconds = SecondsSince(start);
  }

  // --- streaming: sessions with per-episode annotation ------------------
  // Round-robin across users: the arrival pattern a live feed would
  // have, maximizing session switching.
  size_t longest = 0;
  for (const datagen::SimulatedTrack& t : people.tracks) {
    longest = std::max(longest, t.points.size());
  }
  auto run_live = [&](store::SemanticTrajectoryStore& store,
                      analytics::LatencyProfiler* profiler,
                      double* seconds) -> bool {
    core::SemiTriPipeline pipeline(&world.regions, &world.roads,
                                   &world.pois, core::PipelineConfig{},
                                   &store, profiler);
    stream::SessionManager manager(&pipeline,
                                   stream::SessionManagerConfig{});
    auto start = std::chrono::steady_clock::now();
    for (size_t k = 0; k < longest; ++k) {
      for (const datagen::SimulatedTrack& track : people.tracks) {
        if (k >= track.points.size()) continue;
        auto fed = manager.Feed(track.object_id, track.points[k]);
        if (!fed.ok()) {
          std::fprintf(stderr, "feed failed: %s\n",
                       fed.status().ToString().c_str());
          return false;
        }
      }
    }
    if (auto status = manager.CloseAll(); !status.ok()) {
      std::fprintf(stderr, "close failed: %s\n", status.ToString().c_str());
      return false;
    }
    *seconds = SecondsSince(start);
    stream::SessionManager::Stats stats = manager.stats();
    std::printf("%s %9.0f points/s  (%.3f s total, %zu "
                "episodes closed, %zu annotation passes)\n",
                profiler != nullptr ? "live sessions:  " : "live (WAL):     ",
                static_cast<double>(total_points) / *seconds, *seconds,
                stats.episodes_closed, stats.annotation_passes);
    return true;
  };

  std::printf("offline batch:   %9.0f points/s  (%.3f s total)\n",
              static_cast<double>(total_points) / offline_seconds,
              offline_seconds);

  store::SemanticTrajectoryStore store;
  analytics::LatencyProfiler profiler;
  double live_seconds = 0.0;
  if (!run_live(store, &profiler, &live_seconds)) return 1;

  // Same live pass in durable mode: every Put framed into the WAL
  // first, one atomic checkpoint compaction at the end. The delta vs.
  // the in-memory pass is the cost of crash safety.
  std::filesystem::path wal_dir = ScratchDir("wal");
  store::StoreConfig durable_config;
  durable_config.durable_dir = wal_dir.string();
  store::SemanticTrajectoryStore durable_store(durable_config);
  double wal_seconds = 0.0;
  bool wal_ok = run_live(durable_store, nullptr, &wal_seconds);
  if (wal_ok) {
    if (auto status = durable_store.Sync(); !status.ok()) {
      std::fprintf(stderr, "wal sync failed: %s\n",
                   status.ToString().c_str());
      wal_ok = false;
    }
  }
  if (wal_ok) {
    if (auto status = durable_store.Checkpoint(); !status.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   status.ToString().c_str());
      wal_ok = false;
    }
  }
  std::filesystem::remove_all(wal_dir);
  if (!wal_ok) return 1;
  if (!durable_store.ContentEquals(store)) {
    std::fprintf(stderr, "durable store diverged from in-memory store\n");
    return 1;
  }
  double wal_overhead =
      live_seconds > 0.0 ? (wal_seconds - live_seconds) / live_seconds : 0.0;
  std::printf("WAL durability overhead: %s  (%.3f s -> %.3f s)\n\n",
              benchutil::Pct(wal_overhead).c_str(), live_seconds,
              wal_seconds);

  // --- WAL bytes per fix: live vs. offline ----------------------------
  // Same corpus, both paths into durable stores, exact log sizes before
  // any checkpoint. Then the episodes-per-trajectory sweep: one taxi
  // shift per point, longer shifts closing more episodes per trajectory
  // (the worst case for rewriting the prefix on every closed episode).
  benchutil::BenchReporter reporter("stream_throughput");
  WalComparison corpus_wal;
  if (!CompareWal(world, people, &corpus_wal)) return 1;
  if (!corpus_wal.stores_equal || !corpus_wal.recovered_equal) {
    std::fprintf(stderr, "live durable store diverged from offline, or "
                         "the recovered checkpoint from its store\n");
    return 1;
  }
  auto per_fix = [](size_t bytes, size_t fixes) {
    return static_cast<double>(bytes) / static_cast<double>(fixes);
  };
  std::printf("WAL bytes/fix:   offline %.1f, live %.1f (offline/live %.3f)\n",
              per_fix(corpus_wal.offline_wal_bytes, total_points),
              per_fix(corpus_wal.live_wal_bytes, total_points),
              static_cast<double>(corpus_wal.offline_wal_bytes) /
                  static_cast<double>(corpus_wal.live_wal_bytes));
  reporter.Metric("offline_wal_bytes_per_fix",
                  per_fix(corpus_wal.offline_wal_bytes, total_points));
  reporter.Metric("live_wal_bytes_per_fix",
                  per_fix(corpus_wal.live_wal_bytes, total_points));
  reporter.GateRatio("offline_over_live_wal_bytes",
                     static_cast<double>(corpus_wal.offline_wal_bytes) /
                         static_cast<double>(corpus_wal.live_wal_bytes));
  std::printf("checkpoint:      %.1f bytes/fix (offline WAL/checkpoint "
              "%.3f), Checkpoint() %.2f ms, Recover() %.2f ms\n",
              per_fix(corpus_wal.checkpoint_bytes, total_points),
              static_cast<double>(corpus_wal.offline_wal_bytes) /
                  static_cast<double>(corpus_wal.checkpoint_bytes),
              corpus_wal.checkpoint_seconds * 1e3,
              corpus_wal.recover_seconds * 1e3);
  reporter.Metric("offline_checkpoint_bytes_per_fix",
                  per_fix(corpus_wal.checkpoint_bytes, total_points));
  reporter.Metric("offline_checkpoint_ms", corpus_wal.checkpoint_seconds * 1e3);
  reporter.Metric("offline_recover_ms", corpus_wal.recover_seconds * 1e3);
  reporter.GateRatio("offline_wal_over_checkpoint_bytes",
                     static_cast<double>(corpus_wal.offline_wal_bytes) /
                         static_cast<double>(corpus_wal.checkpoint_bytes));

  std::printf("\nepisodes-per-trajectory sweep (1 taxi, 1 s sampling):\n");
  std::printf("  %6s %8s %10s %12s %12s %14s\n", "shift", "fixes",
              "eps/traj", "offline B/fx", "live B/fx", "live/offline/s");
  const std::vector<double> shifts =
      smoke ? std::vector<double>{1.0, 6.0}
            : std::vector<double>{1.0, 2.0, 4.0, 6.0};
  datagen::DatasetFactory taxi_factory(&world, /*seed=*/773);
  for (double hours : shifts) {
    datagen::Dataset taxi = taxi_factory.LausanneTaxis(1, 1, hours);
    const size_t fixes = taxi.TotalRecords();
    WalComparison point;
    if (!CompareWal(world, taxi, &point)) return 1;
    if (!point.stores_equal || !point.recovered_equal) {
      std::fprintf(stderr, "%.0f h shift: live or recovered store diverged\n",
                   hours);
      return 1;
    }
    const double episodes_per_trajectory =
        static_cast<double>(point.episodes_closed) /
        static_cast<double>(std::max<size_t>(1, point.trajectories));
    const double live_over_offline = point.offline_seconds / point.live_seconds;
    std::printf("  %5.0fh %8zu %10.1f %12.1f %12.1f %14.3f\n", hours, fixes,
                episodes_per_trajectory,
                per_fix(point.offline_wal_bytes, fixes),
                per_fix(point.live_wal_bytes, fixes), live_over_offline);
    const std::string key = common::StrFormat("sweep_%.0fh_", hours);
    reporter.Metric(key + "fixes", fixes);
    reporter.Metric(key + "episodes_per_trajectory", episodes_per_trajectory);
    reporter.Metric(key + "offline_wal_bytes_per_fix",
                    per_fix(point.offline_wal_bytes, fixes));
    reporter.Metric(key + "live_wal_bytes_per_fix",
                    per_fix(point.live_wal_bytes, fixes));
    reporter.Metric(key + "live_over_offline_points_per_s", live_over_offline);
    if (hours == shifts.back()) {
      reporter.GateRatio("long_shift_offline_over_live_wal_bytes",
                         static_cast<double>(point.offline_wal_bytes) /
                             static_cast<double>(point.live_wal_bytes));
    }
  }
  std::printf("\n");

  PrintSummary("episode annotation latency",
               profiler.Summarize(stream::kStreamStageEpisodeAnnotation));
  PrintSummary("trajectory finalization",
               profiler.Summarize(stream::kStreamStageFinalizeTrajectory));

  // --- overloaded pass --------------------------------------------------
  // The same corpus pushed through deliberately tight admission budgets
  // (over budget, Feed sheds the least-recently-fed session): how much
  // throughput costs when the manager has to evict sessions to admit
  // work, how often it sheds, and what the admission decision itself
  // costs per fix (p50/p99 Feed latency).
  double overload_seconds = 0.0;
  std::vector<double> admission_latencies;
  stream::SessionManager::Stats overload_stats;
  {
    store::SemanticTrajectoryStore overload_store;
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{}, &overload_store);
    stream::SessionManagerConfig mc;
    mc.admission.max_sessions =
        std::max<size_t>(1, static_cast<size_t>(kUsers) / 3);
    mc.admission.max_buffered_fixes = smoke ? 2000 : 20000;
    stream::SessionManager manager(&pipeline, mc);

    admission_latencies.reserve(total_points);
    // Chunked round-robin: enough switching to force shedding without
    // degenerating into one eviction per fix.
    const size_t kChunk = 200;
    auto start = std::chrono::steady_clock::now();
    for (size_t base = 0; base < longest; base += kChunk) {
      for (const datagen::SimulatedTrack& track : people.tracks) {
        for (size_t k = base;
             k < std::min(base + kChunk, track.points.size()); ++k) {
          auto fed_start = std::chrono::steady_clock::now();
          auto fed = manager.Feed(track.object_id, track.points[k]);
          admission_latencies.push_back(SecondsSince(fed_start));
          if (!fed.ok()) {
            std::fprintf(stderr, "overloaded feed failed: %s\n",
                         fed.status().ToString().c_str());
            return 1;
          }
        }
      }
    }
    if (auto status = manager.CloseAll(); !status.ok()) {
      std::fprintf(stderr, "overloaded close failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    overload_seconds = SecondsSince(start);
    overload_stats = manager.stats();
  }
  auto percentile = [&](double p) {
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(admission_latencies.size() - 1));
    std::nth_element(admission_latencies.begin(),
                     admission_latencies.begin() + idx,
                     admission_latencies.end());
    return admission_latencies[idx];
  };
  double admission_p50 = percentile(0.50);
  double admission_p99 = percentile(0.99);
  double shed_rate =
      static_cast<double>(overload_stats.sessions_shed) * 1000.0 /
      static_cast<double>(total_points);
  std::printf("\noverloaded:      %9.0f points/s  (%.3f s total, %zu sheds "
              "= %.2f per 1k fixes)\n",
              static_cast<double>(total_points) / overload_seconds,
              overload_seconds, overload_stats.sessions_shed, shed_rate);
  std::printf("  admission latency            p50 %9.3f ms   p99 %9.3f ms\n",
              admission_p50 * 1e3, admission_p99 * 1e3);

  std::printf("\nstore end state: %zu trajectories, %zu gps records, %zu "
              "semantic episodes\n",
              store.num_trajectories(), store.num_gps_records(),
              store.num_semantic_episodes());

  // --- kernel section (perf-gate) ---------------------------------------
  // Flat arena-backed Viterbi vs. the nested-vector reference above, on
  // a stop sequence shaped like the streaming workload's decode calls.
  {
    const size_t kStates = 8;
    const size_t kStops = smoke ? 2000 : 20000;
    hmm::HmmModel model;
    model.initial.assign(kStates, 1.0 / static_cast<double>(kStates));
    model.transition = hmm::MakeDefaultTransition(kStates, 0.6);
    hmm::EmissionMatrix emissions;
    emissions.Reset(kStates);
    common::Rng rng(99);
    for (size_t t = 0; t < kStops; ++t) {
      for (double& e : emissions.AppendRow()) e = rng.Uniform(0.01, 1.0);
    }
    common::Arena arena;
    const int kIters = 15;
    double checksum = 0.0;
    double kernel_speedup = reporter.GatePairedSpeedup(
        "kernel_speedup", "viterbi_flat", "viterbi_scalar_ref", kIters,
        [&] {
          arena.Reset();
          auto result = hmm::Viterbi(model, emissions, &arena);
          if (!result.ok()) std::abort();
        },
        [&] { checksum += ReferenceViterbiScalar(model, emissions); });
    reporter.Metric("scalar_ref_checksum", checksum);
    std::printf("\nkernel section: flat-vs-nested viterbi paired-median "
                "speedup %.2fx\n",
                kernel_speedup);
  }

  // --- steady-state allocation gate -------------------------------------
  // One AnnotationSession fed the same track twice: after the warm-up
  // pass, replaying it must grow neither the arena block count nor any
  // scratch buffer (the zero steady-state-allocation contract; the
  // in-process assertion lives in tests/stream_scratch_test.cc).
  {
    core::SemiTriPipeline pipeline(&world.regions, &world.roads, &world.pois,
                                   core::PipelineConfig{});
    stream::AnnotationSession session(&pipeline, /*object_id=*/4242);
    const datagen::SimulatedTrack& track = people.tracks.front();
    auto feed_track = [&]() -> bool {
      for (const core::GpsPoint& fix : track.points) {
        if (!session.Feed(fix).ok()) return false;
      }
      return session.Flush().ok();
    };
    if (!feed_track()) {
      std::fprintf(stderr, "scratch warm-up pass failed\n");
      return 1;
    }
    size_t warm_blocks = session.scratch().point.arena.num_block_allocations();
    size_t warm_capacity = session.scratch().capacity_bytes();
    if (!feed_track()) {
      std::fprintf(stderr, "scratch steady-state pass failed\n");
      return 1;
    }
    size_t steady_allocs =
        (session.scratch().point.arena.num_block_allocations() - warm_blocks) +
        (session.scratch().capacity_bytes() != warm_capacity ? 1 : 0);
    reporter.GateZero("scratch_steady_state_allocs", steady_allocs);
    reporter.Metric("scratch_capacity_bytes", warm_capacity);
    std::printf("steady-state scratch allocations after warm-up: %zu "
                "(scratch capacity %zu bytes)\n",
                steady_allocs, warm_capacity);
  }

  reporter.Metric("smoke", static_cast<size_t>(smoke ? 1 : 0));
  reporter.Metric("gps_records", total_points);
  reporter.Metric("offline_points_per_s",
                  static_cast<double>(total_points) / offline_seconds);
  reporter.Metric("live_points_per_s",
                  static_cast<double>(total_points) / live_seconds);
  reporter.Metric("live_wal_points_per_s",
                  static_cast<double>(total_points) / wal_seconds);
  reporter.Metric("live_over_offline_points_per_s",
                  offline_seconds / live_seconds);
  reporter.Metric("wal_overhead_fraction", wal_overhead);
  reporter.Metric("overload_points_per_s",
                  static_cast<double>(total_points) / overload_seconds);
  reporter.Metric("overload_sessions_shed", overload_stats.sessions_shed);
  reporter.Metric("overload_shed_per_1k_fixes", shed_rate);
  reporter.Metric("overload_rejected_fixes",
                  overload_stats.overload_rejected_fixes);
  reporter.Metric("admission_p50_ms", admission_p50 * 1e3);
  reporter.Metric("admission_p99_ms", admission_p99 * 1e3);
  return reporter.Write() ? 0 : 1;
}
