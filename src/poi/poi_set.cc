#include "poi/poi_set.h"

namespace semitri::poi {

const char* MilanCategoryName(MilanCategory category) {
  switch (category) {
    case MilanCategory::kServices: return "services";
    case MilanCategory::kFeedings: return "feedings";
    case MilanCategory::kItemSale: return "item sale";
    case MilanCategory::kPersonLife: return "person life";
    case MilanCategory::kUnknown: return "unknown";
  }
  return "unknown";
}

PoiSet::PoiSet(std::vector<std::string> category_names)
    : category_names_(std::move(category_names)),
      category_counts_(category_names_.size(), 0) {}

PoiSet PoiSet::MilanCategories() {
  std::vector<std::string> names;
  names.reserve(kNumMilanCategories);
  for (int c = 0; c < kNumMilanCategories; ++c) {
    names.push_back(MilanCategoryName(static_cast<MilanCategory>(c)));
  }
  return PoiSet(std::move(names));
}

core::PlaceId PoiSet::Add(const geo::Point& position, int category,
                          std::string name) {
  Poi p;
  p.id = static_cast<core::PlaceId>(pois_.size());
  p.position = position;
  p.category = category;
  p.name = std::move(name);
  pois_.push_back(std::move(p));
  ++category_counts_[static_cast<size_t>(category)];
  index_.Insert(geo::BoundingBox::FromPoint(position), pois_.back().id);
  return pois_.back().id;
}

std::vector<double> PoiSet::CategoryPriors() const {
  std::vector<double> priors(category_names_.size(), 0.0);
  if (pois_.empty()) {
    // Uninformative prior over an empty repository.
    double u = 1.0 / static_cast<double>(category_names_.size());
    for (double& p : priors) p = u;
    return priors;
  }
  for (size_t c = 0; c < priors.size(); ++c) {
    priors[c] = static_cast<double>(category_counts_[c]) /
                static_cast<double>(pois_.size());
  }
  return priors;
}

core::PlaceId PoiSet::Nearest(const geo::Point& p) const {
  auto nn = index_.NearestNeighbors(p, 1);
  return nn.empty() ? core::kInvalidPlaceId : nn.front().value;
}

core::PlaceId PoiSet::NearestOfCategory(const geo::Point& p, int category,
                                        double max_distance) const {
  const index::RStarTree<core::PlaceId>::Entry* hit = index_.NearestMatching(
      p, max_distance,
      [&](const auto& entry) { return Get(entry.value).category == category; });
  return hit == nullptr ? core::kInvalidPlaceId : hit->value;
}

std::vector<core::PlaceId> PoiSet::WithinRadius(const geo::Point& p,
                                                double radius) const {
  return index_.QueryRadius(p, radius);
}

}  // namespace semitri::poi
