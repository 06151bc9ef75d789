#ifndef SEMITRI_GEO_SEGMENT_H_
#define SEMITRI_GEO_SEGMENT_H_

// Line segments and the point–segment distance of SeMiTri Eq. (1):
//
//   d(Q, AiAj) = d(Q, Q')                       if Q' lies on AiAj
//              = min{ d(Q, Ai), d(Q, Aj) }      otherwise
//
// where Q' is the perpendicular projection of Q on the supporting line.
// This metric (rather than raw perpendicular distance) is what makes the
// map matcher robust on dense networks and arbitrary crossings.

#include "geo/box.h"
#include "geo/point.h"

namespace semitri::geo {

struct Segment {
  Point a;
  Point b;

  constexpr Segment() = default;
  constexpr Segment(Point a_in, Point b_in) : a(a_in), b(b_in) {}

  double Length() const { return a.DistanceTo(b); }

  BoundingBox Bounds() const { return BoundingBox::FromPoints(a, b); }

  // Parameter t in [0,1] of the point on the segment closest to q.
  double ClosestParameter(const Point& q) const {
    Point d = b - a;
    double len2 = d.SquaredNorm();
    if (len2 == 0.0) return 0.0;
    double t = (q - a).Dot(d) / len2;
    if (t < 0.0) return 0.0;
    if (t > 1.0) return 1.0;
    return t;
  }

  Point ClosestPoint(const Point& q) const {
    double t = ClosestParameter(q);
    return a + (b - a) * t;
  }

  // SeMiTri Eq. (1): perpendicular distance when the projection falls on
  // the segment, else the distance to the nearer endpoint. Equivalent to
  // the distance to ClosestPoint, implemented directly for clarity.
  double DistanceTo(const Point& q) const { return q.DistanceTo(ClosestPoint(q)); }
};

}  // namespace semitri::geo

#endif  // SEMITRI_GEO_SEGMENT_H_
