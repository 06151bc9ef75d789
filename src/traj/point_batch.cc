#include "traj/point_batch.h"

namespace semitri::traj {

namespace {

void FillArrays(std::span<const core::GpsPoint> points,
                std::vector<double>* xs, std::vector<double>* ys,
                std::vector<double>* ts) {
  xs->clear();
  ys->clear();
  ts->clear();
  xs->reserve(points.size());
  ys->reserve(points.size());
  ts->reserve(points.size());
  for (const core::GpsPoint& p : points) {
    xs->push_back(p.position.x);
    ys->push_back(p.position.y);
    ts->push_back(p.time);
  }
}

}  // namespace

void PointBatch::BuildFrom(const core::RawTrajectory& trajectory) {
  id_ = trajectory.id;
  object_id_ = trajectory.object_id;
  FillArrays(trajectory.points, &xs_, &ys_, &ts_);
}

void PointBatch::Extend(const core::RawTrajectory& trajectory) {
  id_ = trajectory.id;
  object_id_ = trajectory.object_id;
  for (size_t i = size(); i < trajectory.points.size(); ++i) {
    const core::GpsPoint& p = trajectory.points[i];
    xs_.push_back(p.position.x);
    ys_.push_back(p.position.y);
    ts_.push_back(p.time);
  }
}

void PointBatch::BuildFrom(std::span<const core::GpsPoint> points,
                           core::TrajectoryId id, core::ObjectId object_id) {
  id_ = id;
  object_id_ = object_id;
  FillArrays(points, &xs_, &ys_, &ts_);
}

}  // namespace semitri::traj
