#ifndef SEMITRI_ROAD_ROAD_NETWORK_H_
#define SEMITRI_ROAD_ROAD_NETWORK_H_

// Road networks (P_line, Def. 2): typed, connected segment sets indexed
// by an R*-tree, supporting the candidate-segment retrieval of the
// global map matcher (Algorithm 2 selects only neighboring segments).

#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "geo/segment.h"
#include "index/rstar_tree.h"

namespace semitri::road {

using NodeId = int64_t;

// Road classes; chosen to cover what transport-mode inference needs
// (which network a walker / cyclist / bus / metro can use).
enum class RoadType {
  kHighway,      // motorways — cars/buses, high speed
  kArterial,     // major city roads — cars, bus routes
  kResidential,  // minor roads
  kFootway,      // pedestrian paths (parks, campus walkways)
  kCycleway,     // bicycle paths
  kRailMetro,    // metro / light-rail tracks
};

const char* RoadTypeName(RoadType type);

// Whether a transport network of this type is reachable on foot (used by
// mode inference to sanity-check walking on rail).
bool IsRoadTypeWalkable(RoadType type);

struct RoadSegment {
  core::PlaceId id = core::kInvalidPlaceId;
  NodeId from = -1;
  NodeId to = -1;
  RoadType type = RoadType::kResidential;
  std::string name;  // street name ("Ch. Veilloud"); may repeat per street
  geo::Segment shape;

  double Length() const { return shape.Length(); }
};

class RoadNetwork {
 public:
  NodeId AddNode(const geo::Point& position);
  core::PlaceId AddSegment(NodeId from, NodeId to, RoadType type,
                           std::string name = "");

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_segments() const { return segments_.size(); }
  const geo::Point& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  const RoadSegment& segment(core::PlaceId id) const {
    return segments_[static_cast<size_t>(id)];
  }
  const std::vector<RoadSegment>& segments() const { return segments_; }

  double TotalLengthMeters() const;

  // Segments whose bounds lie within `radius` of p (R*-tree filtered) —
  // candidateSegs(Q) of Algorithm 2.
  std::vector<core::PlaceId> CandidateSegments(const geo::Point& p,
                                               double radius) const;

  // Allocation-free form: clears and refills `out`, reusing its
  // capacity (the map-matcher hot loop calls this once per point).
  void CandidateSegments(const geo::Point& p, double radius,
                         std::vector<core::PlaceId>* out) const;

  // Flat endpoint arrays (SoA mirror of segments()[id].shape), indexed
  // by segment id: segment id runs (seg_ax()[id], seg_ay()[id]) to
  // (seg_bx()[id], seg_by()[id]). The batched distance kernel
  // (geo::DistancesToSegments) gathers from these.
  std::span<const double> seg_ax() const { return seg_ax_; }
  std::span<const double> seg_ay() const { return seg_ay_; }
  std::span<const double> seg_bx() const { return seg_bx_; }
  std::span<const double> seg_by() const { return seg_by_; }

  // Exhaustive nearest segment (linear scan; baseline & tests).
  core::PlaceId NearestSegmentLinear(const geo::Point& p) const;

  // Nearest segment via the index (kNN on boxes + exact refinement).
  core::PlaceId NearestSegment(const geo::Point& p) const;

  // Segments incident to a node (graph connectivity).
  const std::vector<core::PlaceId>& SegmentsAtNode(NodeId node) const;

  // Segments sharing an endpoint with `id` (excluding itself).
  std::vector<core::PlaceId> AdjacentSegments(core::PlaceId id) const;

  geo::BoundingBox Bounds() const { return index_.Bounds(); }

 private:
  std::vector<geo::Point> nodes_;
  std::vector<RoadSegment> segments_;
  // Endpoint SoA kept in lockstep with segments_ (see seg_ax()).
  std::vector<double> seg_ax_, seg_ay_, seg_bx_, seg_by_;
  std::vector<std::vector<core::PlaceId>> node_segments_;
  index::RStarTree<core::PlaceId> index_;
};

}  // namespace semitri::road

#endif  // SEMITRI_ROAD_ROAD_NETWORK_H_
