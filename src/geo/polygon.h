#ifndef SEMITRI_GEO_POLYGON_H_
#define SEMITRI_GEO_POLYGON_H_

// Simple polygons (single ring, no holes) — the spatial extent of
// free-form semantic regions (campus, park). Landuse cells use
// BoundingBox directly.

#include <vector>

#include "geo/box.h"
#include "geo/point.h"

namespace semitri::geo {

class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> ring) : ring_(std::move(ring)) {}

  // Axis-aligned rectangle polygon.
  static Polygon FromBox(const BoundingBox& box) {
    return Polygon({box.min,
                    {box.max.x, box.min.y},
                    box.max,
                    {box.min.x, box.max.y}});
  }

  const std::vector<Point>& ring() const { return ring_; }
  size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }

  BoundingBox Bounds() const {
    BoundingBox box;
    for (const Point& p : ring_) box.ExpandToInclude(p);
    return box;
  }

  // Signed area (positive when the ring is counter-clockwise).
  double SignedArea() const {
    double twice = 0.0;
    for (size_t i = 0, n = ring_.size(); i < n; ++i) {
      const Point& p = ring_[i];
      const Point& q = ring_[(i + 1) % n];
      twice += p.Cross(q);
    }
    return twice * 0.5;
  }

  double Area() const { return std::abs(SignedArea()); }

  // Even–odd (ray casting) containment test; boundary points count as
  // inside for the vertical-edge crossings this rule covers.
  bool Contains(const Point& p) const {
    bool inside = false;
    for (size_t i = 0, n = ring_.size(), j = n - 1; i < n; j = i++) {
      const Point& pi = ring_[i];
      const Point& pj = ring_[j];
      bool crosses = (pi.y > p.y) != (pj.y > p.y);
      if (crosses) {
        double x_at_y = pj.x + (pi.x - pj.x) * (p.y - pj.y) / (pi.y - pj.y);
        if (p.x < x_at_y) inside = !inside;
      }
    }
    return inside;
  }

 private:
  std::vector<Point> ring_;
};

}  // namespace semitri::geo

#endif  // SEMITRI_GEO_POLYGON_H_
