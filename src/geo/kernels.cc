#include "geo/kernels.h"

#include <cmath>

namespace semitri::geo {

void DistancesToSegments(const double* ax, const double* ay,
                         const double* bx, const double* by, size_t n,
                         double qx, double qy, double* out) {
  for (size_t i = 0; i < n; ++i) {
    // Segment::ClosestParameter, unrolled per lane.
    const double dx = bx[i] - ax[i];
    const double dy = by[i] - ay[i];
    const double len2 = dx * dx + dy * dy;
    double t = 0.0;
    if (len2 != 0.0) {
      t = ((qx - ax[i]) * dx + (qy - ay[i]) * dy) / len2;
      if (t < 0.0) t = 0.0;
      if (t > 1.0) t = 1.0;
    }
    // Segment::ClosestPoint (a + d * t), then Point::DistanceTo.
    const double cx = ax[i] + dx * t;
    const double cy = ay[i] + dy * t;
    out[i] = std::hypot(qx - cx, qy - cy);
  }
}

void DistancesToPoints(const double* xs, const double* ys, size_t n,
                       double qx, double qy, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::hypot(qx - xs[i], qy - ys[i]);
  }
}

}  // namespace semitri::geo
