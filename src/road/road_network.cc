#include "road/road_network.h"

#include <limits>

namespace semitri::road {

const char* RoadTypeName(RoadType type) {
  switch (type) {
    case RoadType::kHighway: return "highway";
    case RoadType::kArterial: return "arterial";
    case RoadType::kResidential: return "residential";
    case RoadType::kFootway: return "footway";
    case RoadType::kCycleway: return "cycleway";
    case RoadType::kRailMetro: return "rail_metro";
  }
  return "unknown";
}

bool IsRoadTypeWalkable(RoadType type) {
  return type != RoadType::kHighway && type != RoadType::kRailMetro;
}

NodeId RoadNetwork::AddNode(const geo::Point& position) {
  nodes_.push_back(position);
  node_segments_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

core::PlaceId RoadNetwork::AddSegment(NodeId from, NodeId to, RoadType type,
                                      std::string name) {
  RoadSegment seg;
  seg.id = static_cast<core::PlaceId>(segments_.size());
  seg.from = from;
  seg.to = to;
  seg.type = type;
  seg.name = std::move(name);
  seg.shape = geo::Segment(node(from), node(to));
  segments_.push_back(std::move(seg));
  const RoadSegment& stored = segments_.back();
  seg_ax_.push_back(stored.shape.a.x);
  seg_ay_.push_back(stored.shape.a.y);
  seg_bx_.push_back(stored.shape.b.x);
  seg_by_.push_back(stored.shape.b.y);
  index_.Insert(stored.shape.Bounds(), stored.id);
  node_segments_[static_cast<size_t>(from)].push_back(stored.id);
  node_segments_[static_cast<size_t>(to)].push_back(stored.id);
  return stored.id;
}

double RoadNetwork::TotalLengthMeters() const {
  double total = 0.0;
  for (const RoadSegment& s : segments_) total += s.Length();
  return total;
}

std::vector<core::PlaceId> RoadNetwork::CandidateSegments(
    const geo::Point& p, double radius) const {
  std::vector<core::PlaceId> out;
  CandidateSegments(p, radius, &out);
  return out;
}

void RoadNetwork::CandidateSegments(const geo::Point& p, double radius,
                                    std::vector<core::PlaceId>* out) const {
  out->clear();
  index_.QueryRadiusInto(p, radius, out);
  // Refine the box-distance prefilter by exact segment distance, in
  // place (Algorithm 2's candidateSegs keeps only true neighbors).
  size_t kept = 0;
  for (core::PlaceId id : *out) {
    if (segment(id).shape.DistanceTo(p) <= radius) (*out)[kept++] = id;
  }
  out->resize(kept);
}

core::PlaceId RoadNetwork::NearestSegmentLinear(const geo::Point& p) const {
  core::PlaceId best = core::kInvalidPlaceId;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const RoadSegment& s : segments_) {
    double d = s.shape.DistanceTo(p);
    if (d < best_dist) {
      best_dist = d;
      best = s.id;
    }
  }
  return best;
}

core::PlaceId RoadNetwork::NearestSegment(const geo::Point& p) const {
  if (segments_.empty()) return core::kInvalidPlaceId;
  // Best-first over box distance, refined by exact segment distance: pull
  // a few nearest boxes and verify against the true metric.
  core::PlaceId best = core::kInvalidPlaceId;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t k = 8;; k *= 2) {
    auto nearest = index_.NearestNeighbors(p, std::min(k, segments_.size()));
    for (const auto& entry : nearest) {
      double d = segment(entry.value).shape.DistanceTo(p);
      if (d < best_dist) {
        best_dist = d;
        best = entry.value;
      }
    }
    // Sound if the probe covered every segment, or if the farthest
    // retrieved *box* is farther than the best exact distance (box
    // distance lower-bounds segment distance).
    if (nearest.size() == segments_.size() ||
        nearest.back().box.DistanceTo(p) >= best_dist) {
      return best;
    }
  }
}

const std::vector<core::PlaceId>& RoadNetwork::SegmentsAtNode(
    NodeId node) const {
  return node_segments_[static_cast<size_t>(node)];
}

std::vector<core::PlaceId> RoadNetwork::AdjacentSegments(
    core::PlaceId id) const {
  const RoadSegment& s = segment(id);
  std::vector<core::PlaceId> out;
  for (core::PlaceId other : SegmentsAtNode(s.from)) {
    if (other != id) out.push_back(other);
  }
  for (core::PlaceId other : SegmentsAtNode(s.to)) {
    if (other != id) out.push_back(other);
  }
  return out;
}

}  // namespace semitri::road
