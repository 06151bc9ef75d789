#include "region/region_set.h"

namespace semitri::region {

core::PlaceId RegionSet::AddCell(const geo::BoundingBox& cell,
                                 LanduseCategory category, std::string name) {
  SemanticRegion r;
  r.id = static_cast<core::PlaceId>(regions_.size());
  r.category = category;
  r.name = std::move(name);
  r.bounds = cell;
  regions_.push_back(std::move(r));
  index_.Insert(cell, regions_.back().id);
  return regions_.back().id;
}

core::PlaceId RegionSet::AddPolygon(geo::Polygon polygon,
                                    LanduseCategory category,
                                    std::string name) {
  SemanticRegion r;
  r.id = static_cast<core::PlaceId>(regions_.size());
  r.category = category;
  r.name = std::move(name);
  r.bounds = polygon.Bounds();
  r.polygon = std::move(polygon);
  regions_.push_back(std::move(r));
  index_.Insert(regions_.back().bounds, regions_.back().id);
  return regions_.back().id;
}

std::vector<core::PlaceId> RegionSet::FindContaining(
    const geo::Point& p) const {
  std::vector<core::PlaceId> out;
  for (core::PlaceId id : index_.QueryPoint(p)) {
    if (Get(id).Contains(p)) out.push_back(id);
  }
  return out;
}

std::vector<core::PlaceId> RegionSet::FindIntersecting(
    const geo::BoundingBox& box) const {
  return index_.Query(box);
}

}  // namespace semitri::region
