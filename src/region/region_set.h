#ifndef SEMITRI_REGION_REGION_SET_H_
#define SEMITRI_REGION_REGION_SET_H_

// Semantic regions (P_region, Def. 2) and their indexed repository.
//
// Two shapes back a region: an axis-aligned cell (the common case —
// landuse grids like Swisstopo's 100 m cells) and a free-form polygon
// (campus, park, swimming pool). The repository answers point/box
// queries through an R*-tree over region bounds, exactly how the paper
// accelerates its spatial joins ([2]).

#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "geo/polygon.h"
#include "index/rstar_tree.h"
#include "region/landuse.h"

namespace semitri::region {

struct SemanticRegion {
  core::PlaceId id = core::kInvalidPlaceId;
  LanduseCategory category = LanduseCategory::kBuilding;
  std::string name;  // free-form label ("EPFL campus"); empty for cells
  geo::BoundingBox bounds;
  // Present only for free-form regions; cells use `bounds` directly.
  std::optional<geo::Polygon> polygon;

  bool Contains(const geo::Point& p) const {
    if (!bounds.Contains(p)) return false;
    return !polygon.has_value() || polygon->Contains(p);
  }
};

class RegionSet {
 public:
  // Adds a rectangular cell region. Returns its id.
  core::PlaceId AddCell(const geo::BoundingBox& cell,
                        LanduseCategory category, std::string name = "");

  // Adds a free-form polygonal region. Returns its id.
  core::PlaceId AddPolygon(geo::Polygon polygon, LanduseCategory category,
                           std::string name);

  size_t size() const { return regions_.size(); }
  bool empty() const { return regions_.empty(); }
  const SemanticRegion& Get(core::PlaceId id) const {
    return regions_[static_cast<size_t>(id)];
  }

  // Regions whose shape contains the point (filter via R*-tree, refine
  // via exact containment).
  std::vector<core::PlaceId> FindContaining(const geo::Point& p) const;

  // Regions whose bounds intersect the box.
  std::vector<core::PlaceId> FindIntersecting(
      const geo::BoundingBox& box) const;

  geo::BoundingBox Bounds() const { return index_.Bounds(); }

 private:
  std::vector<SemanticRegion> regions_;
  index::RStarTree<core::PlaceId> index_;
};

}  // namespace semitri::region

#endif  // SEMITRI_REGION_REGION_SET_H_
