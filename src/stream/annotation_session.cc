#include "stream/annotation_session.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analytics/latency_profiler.h"
#include "core/state_serialization.h"

namespace semitri::stream {

namespace {

EpisodeDetectorConfig DetectorConfigFrom(const core::PipelineConfig& pipeline,
                                         const SessionConfig& session) {
  EpisodeDetectorConfig config;
  config.preprocess = pipeline.preprocess;
  config.identification = pipeline.identification;
  config.segmentation = pipeline.segmentation;
  config.max_buffered_points = session.max_buffered_points;
  return config;
}

}  // namespace

AnnotationSession::AnnotationSession(const core::SemiTriPipeline* pipeline,
                                     core::ObjectId object_id,
                                     SessionConfig config,
                                     core::TrajectoryId first_id)
    : pipeline_(pipeline),
      object_id_(object_id),
      config_(config),
      detector_(object_id, DetectorConfigFrom(pipeline->config(), config),
                first_id) {}

common::Result<AnnotationSession::FeedResult> AnnotationSession::Feed(
    const core::GpsPoint& fix) {
  DetectorEvents events;
  detector_.Feed(fix, &events);
  FeedResult result;
  result.accepted = events.accepted;
  result.episodes_closed = events.closed_episodes.size();
  result.trajectory_closed = events.closed_trajectory.has_value();
  result.trajectory_discarded = events.discarded_trajectory;
  if (!events.accepted) return result;
  if (events.discarded_trajectory) ResetOpenTrajectory();
  if (events.closed_trajectory.has_value()) {
    SEMITRI_RETURN_IF_ERROR(
        FinalizeClosed(std::move(*events.closed_trajectory)));
  }
  if (!events.closed_episodes.empty()) {
    SyncPartial(events.closed_episodes);
    if (config_.annotate_on_episode) {
      SEMITRI_RETURN_IF_ERROR(AnnotatePrefix(events.closed_episodes.size()));
    }
  }
  return result;
}

common::Status AnnotationSession::Flush() {
  DetectorEvents events;
  detector_.Close(&events);
  if (events.closed_trajectory.has_value()) {
    return FinalizeClosed(std::move(*events.closed_trajectory));
  }
  ResetOpenTrajectory();
  return common::Status::OK();
}

void AnnotationSession::ResetOpenTrajectory() {
  partial_ = core::PipelineResult();
  annotated_episodes_ = 0;
  batch_points_ = 0;
  store_watermark_ = core::StoreWatermark();
}

void AnnotationSession::SyncPartial(
    const std::vector<core::Episode>& closed) {
  partial_.cleaned.id = detector_.open_trajectory_id();
  partial_.cleaned.object_id = object_id_;
  const std::vector<core::GpsPoint>& prefix = detector_.cleaned_prefix();
  for (size_t i = partial_.cleaned.points.size(); i < prefix.size(); ++i) {
    partial_.cleaned.points.push_back(prefix[i]);
  }
  partial_.episodes.insert(partial_.episodes.end(), closed.begin(),
                           closed.end());
}

common::Status AnnotationSession::RunIncremental(
    core::PipelineResult* result, analytics::LatencyProfiler* profiler) {
  core::AnnotationContext context;
  // Reports of earlier passes stay on the live view, but only this
  // pass's decide whether its layers are complete.
  std::map<std::string, core::StageReport> earlier =
      std::move(result->stage_reports);
  result->stage_reports.clear();
  context.result = std::move(*result);
  context.profiler = profiler;
  context.scratch = &scratch_;
  context.store_watermark = &store_watermark_;
  context.annotated_episodes = annotated_episodes_;
  context.batch_points = batch_points_;
  common::Status status = pipeline_->RunDownstreamStages(context);
  *result = std::move(context.result);
  if (status.ok() && !result->degraded()) {
    annotated_episodes_ = result->episodes.size();
    // PointsBatch() built or extended the batch only if a stage asked.
    if (scratch_.batch.size() == result->cleaned.points.size() &&
        scratch_.batch.id() == result->cleaned.id) {
      batch_points_ = scratch_.batch.size();
    }
  } else {
    annotated_episodes_ = 0;
    batch_points_ = 0;
    store_watermark_ = core::StoreWatermark();
  }
  result->stage_reports.merge(earlier);
  return status;
}

common::Status AnnotationSession::AnnotatePrefix(size_t episodes_closed) {
  auto start = std::chrono::steady_clock::now();
  // The pipeline profiler stays detached: provisional passes repeat per
  // closed episode, so letting them record under the Fig. 17 stage
  // names would skew the per-trajectory semantics of those series.
  // Their latency is accounted under the stream_* stage below instead.
  SEMITRI_RETURN_IF_ERROR(RunIncremental(&partial_, /*profiler=*/nullptr));
  ++annotation_passes_;
  if (analytics::LatencyProfiler* profiler = pipeline_->profiler()) {
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // One sample per episode this pass covered: the pass latency is the
    // close-to-annotated latency of each of them.
    for (size_t i = 0; i < episodes_closed; ++i) {
      profiler->Record(kStreamStageEpisodeAnnotation, elapsed.count());
    }
  }
  return common::Status::OK();
}

common::Status AnnotationSession::FinalizeClosed(ClosedTrajectory closed) {
  std::optional<analytics::LatencyProfiler::Scope> scope;
  if (pipeline_->profiler() != nullptr) {
    scope.emplace(pipeline_->profiler(), kStreamStageFinalizeTrajectory);
  }
  // The provisional layers cover the first annotated_episodes_ episodes
  // of this trajectory: closed episodes and finalized cleaned points
  // never change, so the closed trajectory extends the live view.
  const bool continues =
      partial_.cleaned.id == closed.cleaned.id &&
      partial_.episodes.size() <= closed.episodes.size() &&
      std::equal(partial_.episodes.begin(), partial_.episodes.end(),
                 closed.episodes.begin());
  core::PipelineResult final_result;
  final_result.cleaned = std::move(closed.cleaned);
  final_result.episodes = std::move(closed.episodes);
  if (continues) {
    final_result.region_layer = std::move(partial_.region_layer);
    final_result.line_layer = std::move(partial_.line_layer);
    final_result.point_layer = std::move(partial_.point_layer);
  } else {
    ResetOpenTrajectory();
  }
  common::Status status =
      RunIncremental(&final_result, pipeline_->profiler());
  ResetOpenTrajectory();
  SEMITRI_RETURN_IF_ERROR(status);
  if (config_.keep_results) results_.push_back(std::move(final_result));
  return common::Status::OK();
}

void AnnotationSession::SaveState(common::StateWriter* w) const {
  w->PutI64(object_id_);
  detector_.SaveState(w);
  core::SaveState(partial_, w);
  w->PutU64(annotation_passes_);
  w->PutU64(results_.size());
  for (const core::PipelineResult& result : results_) {
    core::SaveState(result, w);
  }
}

common::Status AnnotationSession::RestoreState(common::StateReader* r) {
  int64_t object_id = 0;
  SEMITRI_RETURN_IF_ERROR(r->GetI64(&object_id));
  if (object_id != object_id_) {
    return common::Status::InvalidArgument(
        "session checkpoint is for a different object");
  }
  SEMITRI_RETURN_IF_ERROR(detector_.RestoreState(r));
  // Whatever the store holds now is unknown to the restored session:
  // the first pass re-annotates the prefix and writes full puts.
  ResetOpenTrajectory();
  SEMITRI_RETURN_IF_ERROR(core::RestoreState(r, &partial_));
  uint64_t passes = 0;
  SEMITRI_RETURN_IF_ERROR(r->GetU64(&passes));
  annotation_passes_ = static_cast<size_t>(passes);
  uint64_t n = 0;
  SEMITRI_RETURN_IF_ERROR(r->GetU64(&n));
  if (n > r->remaining()) {
    return common::Status::Corruption("result count exceeds data");
  }
  results_.clear();
  results_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    core::PipelineResult result;
    SEMITRI_RETURN_IF_ERROR(core::RestoreState(r, &result));
    results_.push_back(std::move(result));
  }
  return common::Status::OK();
}

}  // namespace semitri::stream
