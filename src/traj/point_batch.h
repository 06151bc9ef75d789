#ifndef SEMITRI_TRAJ_POINT_BATCH_H_
#define SEMITRI_TRAJ_POINT_BATCH_H_

// Structure-of-arrays view of a cleaned trajectory.
//
// The annotation kernels (candidate distances, context-window weights,
// motion features) sweep coordinates and timestamps independently; the
// AoS GpsPoint layout makes every such sweep a strided gather. A
// PointBatch is built once per trajectory run from RawTrajectory and
// threaded through the stage graph (core::AnnotationContext::
// PointsBatch), so the kernels read three contiguous double arrays.
// BuildFrom reuses capacity: a streaming session rebuilds into the same
// storage trajectory after trajectory (the zero steady-state-allocation
// contract, see DESIGN.md "Data plane layout").

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.h"
#include "geo/point.h"

namespace semitri::traj {

// A contiguous [offset, offset + size) window over a PointBatch — the
// per-episode unit the line-annotation kernels operate on. Non-owning;
// valid while the batch is.
struct PointView {
  const double* xs = nullptr;
  const double* ys = nullptr;
  const double* ts = nullptr;
  size_t size = 0;

  bool empty() const { return size == 0; }
  geo::Point point(size_t i) const { return {xs[i], ys[i]}; }
  double time(size_t i) const { return ts[i]; }

  PointView Slice(size_t offset, size_t count) const {
    return {xs + offset, ys + offset, ts + offset, count};
  }
};

class PointBatch {
 public:
  // Rebuilds from `trajectory`, reusing the arrays' capacity.
  void BuildFrom(const core::RawTrajectory& trajectory);

  // Appends trajectory.points[size(), trajectory.size()) — for a batch
  // that already mirrors a prefix of `trajectory` (a streaming session's
  // growing open trajectory), so each pass copies only the new points.
  void Extend(const core::RawTrajectory& trajectory);

  // Same, from a bare point span (tests, benches); id/object_id are
  // carried through for callers that have them.
  void BuildFrom(std::span<const core::GpsPoint> points,
                 core::TrajectoryId id = 0, core::ObjectId object_id = 0);

  core::TrajectoryId id() const { return id_; }
  core::ObjectId object_id() const { return object_id_; }

  size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  std::span<const double> xs() const { return xs_; }
  std::span<const double> ys() const { return ys_; }
  std::span<const double> ts() const { return ts_; }

  geo::Point point(size_t i) const { return {xs_[i], ys_[i]}; }
  double time(size_t i) const { return ts_[i]; }

  PointView View() const { return {xs_.data(), ys_.data(), ts_.data(), size()}; }
  PointView View(size_t offset, size_t count) const {
    return View().Slice(offset, count);
  }

  // Combined capacity currently reserved (steady-state allocation
  // accounting in tests).
  size_t capacity() const {
    return xs_.capacity() + ys_.capacity() + ts_.capacity();
  }

 private:
  core::TrajectoryId id_ = 0;
  core::ObjectId object_id_ = 0;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> ts_;
};

}  // namespace semitri::traj

#endif  // SEMITRI_TRAJ_POINT_BATCH_H_
