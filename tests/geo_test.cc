// Geometry substrate tests: points, boxes, segments (paper Eq. 1),
// polygons, WGS-84 projection.

#include <gtest/gtest.h>

#include "geo/box.h"
#include "geo/latlon.h"
#include "geo/point.h"
#include "geo/polygon.h"
#include "geo/segment.h"

namespace semitri::geo {
namespace {

TEST(PointTest, Arithmetic) {
  Point a{3.0, 4.0};
  Point b{1.0, -2.0};
  EXPECT_EQ(a + b, Point(4.0, 2.0));
  EXPECT_EQ(a - b, Point(2.0, 6.0));
  EXPECT_EQ(a * 2.0, Point(6.0, 8.0));
  EXPECT_EQ(2.0 * a, Point(6.0, 8.0));
  EXPECT_EQ(a / 2.0, Point(1.5, 2.0));
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), 3.0 - 8.0);
  EXPECT_DOUBLE_EQ(a.Cross(b), -6.0 - 4.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), std::hypot(2.0, 6.0));
}

TEST(BoxTest, EmptyBoxSemantics) {
  BoundingBox box;
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_DOUBLE_EQ(box.Area(), 0.0);
  EXPECT_FALSE(box.Intersects(BoundingBox({0, 0}, {1, 1})));
  box.ExpandToInclude(Point{2, 3});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_EQ(box.min, Point(2, 3));
  EXPECT_EQ(box.max, Point(2, 3));
}

TEST(BoxTest, ContainsAndIntersects) {
  BoundingBox a({0, 0}, {10, 10});
  BoundingBox b({5, 5}, {15, 15});
  BoundingBox c({11, 11}, {12, 12});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(Point{10, 10}));  // boundary inclusive
  EXPECT_FALSE(a.Contains(Point{10.01, 10}));
  EXPECT_TRUE(a.Contains(BoundingBox({1, 1}, {9, 9})));
  EXPECT_FALSE(a.Contains(b));
  // Touching boxes intersect.
  EXPECT_TRUE(a.Intersects(BoundingBox({10, 0}, {20, 10})));
}

TEST(BoxTest, OverlapAndEnlargement) {
  BoundingBox a({0, 0}, {10, 10});
  BoundingBox b({5, 5}, {15, 15});
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 25.0);
  EXPECT_DOUBLE_EQ(a.OverlapArea(BoundingBox({20, 20}, {30, 30})), 0.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 15.0 * 15.0 - 100.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 20.0);
  EXPECT_EQ(a.Center(), Point(5, 5));
}

TEST(BoxTest, DistanceToPoint) {
  BoundingBox a({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(a.DistanceTo(Point{5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(Point{13, 5}), 3.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(Point{13, 14}), 5.0);
}

// Eq. 1 of the paper: perpendicular distance when the projection falls
// on the segment, nearest-endpoint distance otherwise.
TEST(SegmentTest, PointSegmentDistanceEq1) {
  Segment s({0, 0}, {10, 0});
  // Projection inside: perpendicular distance.
  EXPECT_DOUBLE_EQ(s.DistanceTo(Point{5, 3}), 3.0);
  // Projection beyond endpoints: endpoint distance (Eq. 1 second case).
  EXPECT_DOUBLE_EQ(s.DistanceTo(Point{-4, 3}), 5.0);
  EXPECT_DOUBLE_EQ(s.DistanceTo(Point{14, 3}), 5.0);
  // On the segment.
  EXPECT_DOUBLE_EQ(s.DistanceTo(Point{7, 0}), 0.0);
}

TEST(SegmentTest, ClosestPointAndParameter) {
  Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(s.ClosestParameter(Point{5, 3}), 0.5);
  EXPECT_DOUBLE_EQ(s.ClosestParameter(Point{-100, 0}), 0.0);
  EXPECT_DOUBLE_EQ(s.ClosestParameter(Point{100, 0}), 1.0);
  EXPECT_EQ(s.ClosestPoint(Point{7, -2}), Point(7, 0));
}

TEST(SegmentTest, DegenerateSegment) {
  Segment s({5, 5}, {5, 5});
  EXPECT_DOUBLE_EQ(s.Length(), 0.0);
  EXPECT_DOUBLE_EQ(s.DistanceTo(Point{8, 9}), 5.0);
  EXPECT_EQ(s.ClosestPoint(Point{8, 9}), Point(5, 5));
}

TEST(PolygonTest, ContainsConvex) {
  Polygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_TRUE(square.Contains(Point{5, 5}));
  EXPECT_FALSE(square.Contains(Point{15, 5}));
  EXPECT_FALSE(square.Contains(Point{-1, 5}));
  EXPECT_DOUBLE_EQ(square.Area(), 100.0);
}

TEST(PolygonTest, ContainsConcave) {
  // L-shaped polygon.
  Polygon ell({{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}});
  EXPECT_TRUE(ell.Contains(Point{2, 8}));
  EXPECT_TRUE(ell.Contains(Point{8, 2}));
  EXPECT_FALSE(ell.Contains(Point{8, 8}));  // the notch
  EXPECT_DOUBLE_EQ(ell.Area(), 100.0 - 36.0);
}

TEST(PolygonTest, SignedAreaOrientation) {
  Polygon ccw({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  Polygon cw({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_GT(ccw.SignedArea(), 0.0);
  EXPECT_LT(cw.SignedArea(), 0.0);
  EXPECT_DOUBLE_EQ(ccw.Area(), cw.Area());
}

TEST(PolygonTest, FromBoxAndBounds) {
  BoundingBox box({1, 2}, {5, 7});
  Polygon p = Polygon::FromBox(box);
  EXPECT_EQ(p.size(), 4u);
  BoundingBox back = p.Bounds();
  EXPECT_EQ(back.min, box.min);
  EXPECT_EQ(back.max, box.max);
  EXPECT_TRUE(p.Contains(Point{3, 5}));
}

TEST(LatLonTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  LatLon a{46.5, 6.6};
  LatLon b{47.5, 6.6};
  EXPECT_NEAR(HaversineDistance(a, b), 111195.0, 200.0);
  EXPECT_DOUBLE_EQ(HaversineDistance(a, a), 0.0);
}

TEST(LatLonTest, ProjectionRoundTrip) {
  LocalProjection proj({46.52, 6.63});  // Lausanne
  for (double dlat = -0.05; dlat <= 0.05; dlat += 0.025) {
    for (double dlon = -0.05; dlon <= 0.05; dlon += 0.025) {
      LatLon ll{46.52 + dlat, 6.63 + dlon};
      LatLon back = proj.ToLatLon(proj.ToLocal(ll));
      EXPECT_NEAR(back.lat, ll.lat, 1e-9);
      EXPECT_NEAR(back.lon, ll.lon, 1e-9);
    }
  }
}

TEST(LatLonTest, ProjectionAgreesWithHaversine) {
  LocalProjection proj({46.52, 6.63});
  LatLon a{46.53, 6.64};
  LatLon b{46.51, 6.60};
  double planar = proj.ToLocal(a).DistanceTo(proj.ToLocal(b));
  double sphere = HaversineDistance(a, b);
  // Equirectangular error is far below GPS noise at city scale.
  EXPECT_NEAR(planar, sphere, sphere * 0.001);
}

}  // namespace
}  // namespace semitri::geo
