// Tests for the road network substrate: construction, candidate
// retrieval, nearest segment (indexed vs linear), connectivity.

#include "road/road_network.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace semitri::road {
namespace {

using geo::Point;

RoadNetwork MakeCross() {
  // Two perpendicular streets crossing at the origin node.
  RoadNetwork net;
  NodeId center = net.AddNode({0, 0});
  NodeId east = net.AddNode({100, 0});
  NodeId west = net.AddNode({-100, 0});
  NodeId north = net.AddNode({0, 100});
  net.AddSegment(center, east, RoadType::kArterial, "EW");
  net.AddSegment(west, center, RoadType::kArterial, "EW");
  net.AddSegment(center, north, RoadType::kResidential, "NS");
  return net;
}

TEST(RoadNetworkTest, ConstructionAndAccessors) {
  RoadNetwork net = MakeCross();
  EXPECT_EQ(net.num_nodes(), 4u);
  EXPECT_EQ(net.num_segments(), 3u);
  EXPECT_DOUBLE_EQ(net.TotalLengthMeters(), 300.0);
  EXPECT_EQ(net.segment(0).name, "EW");
  EXPECT_DOUBLE_EQ(net.segment(0).Length(), 100.0);
}

TEST(RoadNetworkTest, CandidateSegmentsWithinRadius) {
  RoadNetwork net = MakeCross();
  auto candidates = net.CandidateSegments({50, 5}, 10.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 0);
  // Near the crossing, all three are candidates.
  EXPECT_EQ(net.CandidateSegments({0, 0}, 10.0).size(), 3u);
  EXPECT_TRUE(net.CandidateSegments({500, 500}, 10.0).empty());
}

TEST(RoadNetworkTest, NearestSegmentMatchesLinear) {
  common::Rng rng(3);
  RoadNetwork net;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 100; ++i) {
    nodes.push_back(net.AddNode(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}));
  }
  for (int i = 0; i < 200; ++i) {
    NodeId a = nodes[static_cast<size_t>(rng.UniformInt(0, 99))];
    NodeId b = nodes[static_cast<size_t>(rng.UniformInt(0, 99))];
    if (a == b) continue;
    net.AddSegment(a, b, RoadType::kResidential);
  }
  for (int q = 0; q < 50; ++q) {
    Point p{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    core::PlaceId fast = net.NearestSegment(p);
    core::PlaceId slow = net.NearestSegmentLinear(p);
    // Equal distance ties can pick either; compare distances.
    EXPECT_DOUBLE_EQ(net.segment(fast).shape.DistanceTo(p),
                     net.segment(slow).shape.DistanceTo(p));
  }
}

TEST(RoadNetworkTest, NearestSegmentOnNetworksSmallerThanTheFirstProbe) {
  // The indexed search first asks for the 8 nearest boxes; straight
  // chains shorter and longer than that must still find the segment the
  // linear scan finds. Queries sit beside each segment's midpoint, past
  // both ends and far off the chain, so the nearest segment is unique.
  for (int n = 1; n <= 9; ++n) {
    RoadNetwork net;
    NodeId prev = net.AddNode({0, 0});
    for (int i = 1; i <= n; ++i) {
      NodeId next = net.AddNode({100.0 * i, 0});
      net.AddSegment(prev, next, RoadType::kResidential);
      prev = next;
    }
    std::vector<Point> queries = {{-50, 0}, {100.0 * n + 50, 0}, {50, 1000}};
    for (int i = 0; i < n; ++i) {
      queries.push_back({100.0 * i + 50, 5});
      queries.push_back({100.0 * i + 50, -5});
    }
    for (const Point& q : queries) {
      EXPECT_NE(net.NearestSegmentLinear(q), core::kInvalidPlaceId);
      EXPECT_EQ(net.NearestSegment(q), net.NearestSegmentLinear(q))
          << n << " segments, query (" << q.x << ", " << q.y << ")";
    }
  }
}

TEST(RoadNetworkTest, Connectivity) {
  RoadNetwork net = MakeCross();
  EXPECT_EQ(net.SegmentsAtNode(0).size(), 3u);  // center
  EXPECT_EQ(net.SegmentsAtNode(1).size(), 1u);  // east
  auto adjacent = net.AdjacentSegments(0);      // EW east half
  EXPECT_EQ(adjacent.size(), 2u);
  EXPECT_TRUE(std::find(adjacent.begin(), adjacent.end(), 1) !=
              adjacent.end());
  EXPECT_TRUE(std::find(adjacent.begin(), adjacent.end(), 2) !=
              adjacent.end());
}

TEST(RoadNetworkTest, WalkabilityByType) {
  EXPECT_TRUE(IsRoadTypeWalkable(RoadType::kFootway));
  EXPECT_TRUE(IsRoadTypeWalkable(RoadType::kResidential));
  EXPECT_FALSE(IsRoadTypeWalkable(RoadType::kHighway));
  EXPECT_FALSE(IsRoadTypeWalkable(RoadType::kRailMetro));
}

TEST(RoadNetworkTest, EmptyNetworkNearest) {
  RoadNetwork net;
  EXPECT_EQ(net.NearestSegment({0, 0}), core::kInvalidPlaceId);
  EXPECT_EQ(net.NearestSegmentLinear({0, 0}), core::kInvalidPlaceId);
}

}  // namespace
}  // namespace semitri::road
