#include "geo/simplify.h"

#include <stack>

#include "geo/segment.h"

namespace semitri::geo {

std::vector<size_t> DouglasPeuckerIndices(const std::vector<Point>& points,
                                          double tolerance_meters) {
  const size_t n = points.size();
  if (n <= 2) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  std::vector<bool> keep(n, false);
  keep.front() = keep.back() = true;

  // Iterative stack form (GPS moves can be long; avoid deep recursion).
  std::stack<std::pair<size_t, size_t>> ranges;
  ranges.push({0, n - 1});
  while (!ranges.empty()) {
    auto [first, last] = ranges.top();
    ranges.pop();
    if (last <= first + 1) continue;
    Segment chord(points[first], points[last]);
    double max_dist = -1.0;
    size_t max_index = first;
    for (size_t i = first + 1; i < last; ++i) {
      double d = chord.DistanceTo(points[i]);
      if (d > max_dist) {
        max_dist = d;
        max_index = i;
      }
    }
    if (max_dist > tolerance_meters) {
      keep[max_index] = true;
      ranges.push({first, max_index});
      ranges.push({max_index, last});
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) out.push_back(i);
  }
  return out;
}

}  // namespace semitri::geo
