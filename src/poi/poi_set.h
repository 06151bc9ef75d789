#ifndef SEMITRI_POI_POI_SET_H_
#define SEMITRI_POI_POI_SET_H_

// Points of interest (P_point, Def. 2) grouped into a small number of
// categories — the hidden states of the Semantic Point Annotation HMM.
// The paper's Milan dataset has 5 top categories: services, feedings,
// item sale, person life, unknown.

#include <limits>
#include <string>
#include <vector>

#include "core/types.h"
#include "geo/point.h"
#include "index/rstar_tree.h"

namespace semitri::poi {

// The Milan POI top-categories used throughout the paper's §4.3/§5.2.
enum class MilanCategory {
  kServices = 0,
  kFeedings = 1,
  kItemSale = 2,
  kPersonLife = 3,
  kUnknown = 4,
};

inline constexpr int kNumMilanCategories = 5;

const char* MilanCategoryName(MilanCategory category);

struct Poi {
  core::PlaceId id = core::kInvalidPlaceId;
  geo::Point position;
  int category = 0;  // index into PoiSet::category_names()
  std::string name;
};

class PoiSet {
 public:
  // `category_names` fixes the category space (HMM state space).
  explicit PoiSet(std::vector<std::string> category_names);

  // A PoiSet over the paper's five Milan categories.
  static PoiSet MilanCategories();

  core::PlaceId Add(const geo::Point& position, int category,
                    std::string name = "");

  size_t size() const { return pois_.size(); }
  bool empty() const { return pois_.empty(); }
  const Poi& Get(core::PlaceId id) const {
    return pois_[static_cast<size_t>(id)];
  }
  const std::vector<Poi>& pois() const { return pois_; }

  size_t num_categories() const { return category_names_.size(); }
  const std::vector<std::string>& category_names() const {
    return category_names_;
  }

  // POIs per category.
  const std::vector<size_t>& category_counts() const {
    return category_counts_;
  }

  // π: category share of the repository (the paper's initial-state
  // estimate, e.g. {4339, 7036, 12510, 15371, 516} / 39772 for Milan).
  std::vector<double> CategoryPriors() const;

  // Nearest POI to p (kInvalidPlaceId when empty).
  core::PlaceId Nearest(const geo::Point& p) const;

  // Nearest POI of a given category within `max_distance` of p
  // (kInvalidPlaceId when there is none). Equal distances resolve in
  // the index's nearest-neighbor order.
  core::PlaceId NearestOfCategory(
      const geo::Point& p, int category,
      double max_distance = std::numeric_limits<double>::infinity()) const;

  // All POIs within `radius` of p.
  std::vector<core::PlaceId> WithinRadius(const geo::Point& p,
                                          double radius) const;

  geo::BoundingBox Bounds() const { return index_.Bounds(); }

 private:
  std::vector<std::string> category_names_;
  std::vector<Poi> pois_;
  std::vector<size_t> category_counts_;
  index::RStarTree<core::PlaceId> index_;
};

}  // namespace semitri::poi

#endif  // SEMITRI_POI_POI_SET_H_
