#include "region/landuse.h"

namespace semitri::region {

const char* LanduseCategoryCode(LanduseCategory category) {
  switch (category) {
    case LanduseCategory::kIndustrialCommercial: return "1.1";
    case LanduseCategory::kBuilding: return "1.2";
    case LanduseCategory::kTransportation: return "1.3";
    case LanduseCategory::kSpecialUrban: return "1.4";
    case LanduseCategory::kRecreational: return "1.5";
    case LanduseCategory::kOrchard: return "2.6";
    case LanduseCategory::kArable: return "2.7";
    case LanduseCategory::kMeadows: return "2.8";
    case LanduseCategory::kAlpineAgricultural: return "2.9";
    case LanduseCategory::kForest: return "3.10";
    case LanduseCategory::kBrushForest: return "3.11";
    case LanduseCategory::kWoods: return "3.12";
    case LanduseCategory::kLakes: return "4.13";
    case LanduseCategory::kRivers: return "4.14";
    case LanduseCategory::kUnproductiveVegetation: return "4.15";
    case LanduseCategory::kBareLand: return "4.16";
    case LanduseCategory::kGlaciers: return "4.17";
  }
  return "?";
}

const char* LanduseCategoryName(LanduseCategory category) {
  switch (category) {
    case LanduseCategory::kIndustrialCommercial:
      return "industrial and commercial area";
    case LanduseCategory::kBuilding: return "building areas";
    case LanduseCategory::kTransportation: return "transportation areas";
    case LanduseCategory::kSpecialUrban: return "special urban areas";
    case LanduseCategory::kRecreational:
      return "recreational areas and cemeteries";
    case LanduseCategory::kOrchard:
      return "orchard, vineyard and horticulture areas";
    case LanduseCategory::kArable: return "arable land";
    case LanduseCategory::kMeadows: return "meadows, farm pastures";
    case LanduseCategory::kAlpineAgricultural:
      return "alpine agricultural areas";
    case LanduseCategory::kForest: return "forest (except brush forest)";
    case LanduseCategory::kBrushForest: return "brush forest";
    case LanduseCategory::kWoods: return "woods";
    case LanduseCategory::kLakes: return "lakes";
    case LanduseCategory::kRivers: return "rivers";
    case LanduseCategory::kUnproductiveVegetation:
      return "unproductive vegetation";
    case LanduseCategory::kBareLand: return "bare land";
    case LanduseCategory::kGlaciers: return "glaciers, perpetual snow";
  }
  return "unknown";
}

LanduseGroup LanduseGroupOf(LanduseCategory category) {
  int index = static_cast<int>(category);
  if (index <= static_cast<int>(LanduseCategory::kRecreational)) {
    return LanduseGroup::kSettlement;
  }
  if (index <= static_cast<int>(LanduseCategory::kAlpineAgricultural)) {
    return LanduseGroup::kAgricultural;
  }
  if (index <= static_cast<int>(LanduseCategory::kWoods)) {
    return LanduseGroup::kWooded;
  }
  return LanduseGroup::kUnproductive;
}

}  // namespace semitri::region
