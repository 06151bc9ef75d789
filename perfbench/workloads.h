#ifndef SEMITRI_PERFBENCH_WORKLOADS_H_
#define SEMITRI_PERFBENCH_WORKLOADS_H_

// The three workloads of the end-to-end benchmark (GPS fixes in,
// durable annotated rows out) and the run loop that measures them.
// See README.md in this directory for what each workload stresses and
// what every metric means.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_metrics.h"
#include "datagen/presets.h"
#include "datagen/world.h"

namespace semitri::perfbench {

inline constexpr std::string_view kWorkloadNames[] = {
    "offline_people", "live_taxi", "cluster_cars"};

// The metrics every untraced run reports (BENCHMARK.json "end_to_end").
inline constexpr std::string_view kEndToEndMetrics[] = {
    "setup_s",
    "points_per_s",
    "annotation_latency_p50_ms",
    "annotation_latency_p90_ms",
    "failover_p50_ms",
    "peak_rss_mb",
};

// The metrics every traced run reports (BENCHMARK.json "per_layer"). A
// layer the workload bypasses reads 0.
inline constexpr std::string_view kPerLayerMetrics[] = {
    "traj.compute_episode_ms.total",
    "region.landuse_join_ms.total",
    "poi.point_annotation_ms.total",
    "road.map_match_ms.p50",
    "road.map_match_ms.total",
    "store.store_episode_ms.p50",
    "store.store_episode_ms.total",
    "store.store_match_result_ms.total",
    "store.store_interpretation_ms.total",
    "store.wal_bytes_per_fix",
    "store.wal_amplification",
    "store.sync_ms",
    "store.checkpoint_ms",
    "store.recover_ms",
    "stream.feed_us.p50",
    "stream.episode_annotation_ms.total",
    "stream.finalize_trajectory_ms.total",
    "stream.annotation_passes",
    "stream.episodes_closed",
    "stream.passes_per_episode",
    "core.pipeline_build_ms",
    "shard.feed_us.p50",
    "shard.tick_ms.p50",
    "shard.tick_ms.total",
    "shard.scrub_files_scanned",
    "shard.checkpoint_all_ms.p50",
    "shard.checkpoint_all_ms.total",
    "shard.seal_ship_ms.p50",
    "shard.shipped_bytes",
    "shard.migrate_ms.p50",
    "shard.failover_ms.p50",
    "shard.refeed_rejected",
    "bench.points_fed",
    "trace.points_per_s_untraced",
    "trace.points_per_s_traced",
    "trace.overhead_pct",
};

bool IsWorkload(std::string_view name);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  // Measured time; passes repeat until it is spent (and every reported
  // percentile has enough samples).
  double seconds = 10.0;
  // Traced run: alternate untraced and traced passes and report the
  // per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  // Durable directories of every pass live (and are removed) under here.
  std::string work_dir;
  // Where a traced run writes its spans ("" = not written).
  std::string trace_path;
};

// Per-pass counts that must repeat exactly for a fixed seed.
struct ExactCounts {
  size_t points_fed = 0;
  size_t annotation_passes = 0;
  size_t episodes_closed = 0;
  size_t wal_bytes = 0;
  size_t shipped_bytes = 0;
  size_t scrub_files_scanned = 0;
  size_t refeed_rejected = 0;

  bool operator==(const ExactCounts&) const = default;
};

struct RunReport {
  bool correct = false;
  size_t attempted = 0;
  size_t failed = 0;
  size_t passes = 0;
  uint64_t corpus_checksum = 0;
  ExactCounts counts;
  MetricSet end_to_end;  // filled by untraced runs
  MetricSet per_layer;   // filled by traced runs
  // Human-readable lines: sample counts, failures.
  std::vector<std::string> notes;
};

// The generated inputs of a workload: the world and the GPS corpus.
struct Inputs {
  datagen::World world;
  datagen::Dataset dataset;
};

// Deterministic in (workload, seed). Null for an unknown workload.
std::unique_ptr<Inputs> MakeInputs(std::string_view workload, uint64_t seed);

// FNV-1a over every object id and fix of the corpus.
uint64_t CorpusChecksum(const datagen::Dataset& dataset);

RunReport RunWorkload(const RunOptions& options);

}  // namespace semitri::perfbench

#endif  // SEMITRI_PERFBENCH_WORKLOADS_H_
