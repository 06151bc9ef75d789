#ifndef SEMITRI_CORE_ANNOTATION_CONTEXT_H_
#define SEMITRI_CORE_ANNOTATION_CONTEXT_H_

// State flowing through the pipeline's stages (paper Fig. 2): the
// artifacts of the Trajectory Computation Layer (cleaned trace,
// stop/move episodes), one StructuredSemanticTrajectory per annotation
// layer, the optional latency profiler, and a streaming session's
// incremental-run cursors.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "traj/point_batch.h"

namespace semitri::analytics {
class LatencyProfiler;
}  // namespace semitri::analytics

namespace semitri::core {

struct AnnotationScratch;

// The three annotation layers of Fig. 2.
enum class Layer { kRegion, kLine, kPoint };

const char* LayerName(Layer layer);

// How one stage execution ended. Recorded on PipelineResult only for
// the interesting cases — a stage that was skipped by its failure
// policy or failed the run — so the happy path stays allocation-free.
struct StageReport {
  // The stage's error (also when the stage was skipped and the run
  // continued).
  common::Status status;
  // True when the stage failed but its FailurePolicy let the run
  // continue — the result is complete except for this stage's layer.
  bool skipped = false;
};

// Everything the pipeline derives from one raw trajectory.
struct PipelineResult {
  RawTrajectory cleaned;
  std::vector<Episode> episodes;
  // Layers are present when the corresponding source was supplied.
  std::optional<StructuredSemanticTrajectory> region_layer;
  std::optional<StructuredSemanticTrajectory> line_layer;
  std::optional<StructuredSemanticTrajectory> point_layer;
  // Per-stage failure accounting (see StageReport); empty on a clean
  // run. Transient — not serialized into checkpoints.
  std::map<std::string, StageReport> stage_reports;

  size_t NumStops() const;
  size_t NumMoves() const;

  // True when any stage was skipped by its failure policy: the result
  // is usable but partial (e.g. region+line layers without the point
  // layer after a POI repository failure).
  bool degraded() const;

  std::optional<StructuredSemanticTrajectory>& layer(Layer which);
  const std::optional<StructuredSemanticTrajectory>& layer(Layer which) const;
};

// How much of one trajectory a store already holds, per table: rows
// [0, n) of the cleaned trace, the episode table and each layer's
// interpretation, equal to the same rows of the PipelineResult being
// stored. A streaming session keeps one per open trajectory, so its
// store stages log append records for the rows past the mark instead of
// re-putting the whole prefix (see SemiTriPipeline::RunDownstreamStages).
// Zero means nothing is stored yet: the next write of that table is a
// full put.
struct StoreWatermark {
  size_t raw_points = 0;
  size_t episodes = 0;
  size_t region = 0;
  size_t line = 0;
  size_t point = 0;

  size_t& layer(Layer which);
};

// Mutable context of one pipeline run. Each stage reads the artifacts
// earlier stages produced and writes its own. The profiler is shared
// and internally synchronized; null runs unprofiled.
struct AnnotationContext {
  PipelineResult result;
  analytics::LatencyProfiler* profiler = nullptr;

  // Per-run working memory (see core/annotation_scratch.h); null = the
  // run builds the point batch into `fallback_batch_` and the stages use
  // local scratch.
  AnnotationScratch* scratch = nullptr;

  // --- incremental runs (stream::AnnotationSession) -------------------
  // Null: every store stage writes full puts (offline runs, whose WAL is
  // byte-identical to a store without append records). Otherwise store
  // stages write only the rows past the mark, as append records, and
  // advance it; a stage that recomputes a layer (rather than appending
  // to it) lowers that layer's mark to the rows the old and new layer
  // share.
  StoreWatermark* store_watermark = nullptr;
  // Episodes [0, annotated_episodes) already carry their region and
  // line annotations in `result` — both layers are per-episode pure —
  // so those stages annotate only the later episodes and append. 0 =
  // annotate every episode.
  size_t annotated_episodes = 0;
  // The scratch batch already mirrors result.cleaned.points[0,
  // batch_points): PointsBatch() appends the rest instead of
  // rebuilding. 0 = rebuild.
  size_t batch_points = 0;

  // SoA view of result.cleaned, built lazily on first use (into the
  // scratch when present, so its capacity is reused across runs).
  const traj::PointBatch& PointsBatch();

 private:
  traj::PointBatch fallback_batch_;
  bool batch_built_ = false;
};

}  // namespace semitri::core

#endif  // SEMITRI_CORE_ANNOTATION_CONTEXT_H_
