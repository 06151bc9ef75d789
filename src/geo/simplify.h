#ifndef SEMITRI_GEO_SIMPLIFY_H_
#define SEMITRI_GEO_SIMPLIFY_H_

// Douglas-Peucker simplification of a point sequence. The KML export
// uses it to thin the geometry of move episodes to a tolerance without
// affecting their annotations.

#include <vector>

#include "geo/point.h"

namespace semitri::geo {

// Indices (into `points`, ascending, always including first and last)
// of the Douglas-Peucker simplification with the given tolerance in
// meters.
std::vector<size_t> DouglasPeuckerIndices(const std::vector<Point>& points,
                                          double tolerance_meters);

}  // namespace semitri::geo

#endif  // SEMITRI_GEO_SIMPLIFY_H_
