#ifndef SEMITRI_REGION_LANDUSE_H_
#define SEMITRI_REGION_LANDUSE_H_

// The Swisstopo landuse ontology of paper Fig. 4: 4 top-level groups and
// 17 sub-categories (codes 1.1 … 4.17) used to label 100 m × 100 m cells.

#include <cstdint>

namespace semitri::region {

enum class LanduseGroup : uint8_t {
  kSettlement = 1,    // L1 Settlement and urban areas
  kAgricultural = 2,  // L2 Agricultural areas
  kWooded = 3,        // L3 Wooded areas
  kUnproductive = 4,  // L4 Unproductive areas
};

enum class LanduseCategory : uint8_t {
  kIndustrialCommercial = 0,   // 1.1
  kBuilding = 1,               // 1.2
  kTransportation = 2,         // 1.3
  kSpecialUrban = 3,           // 1.4
  kRecreational = 4,           // 1.5
  kOrchard = 5,                // 2.6
  kArable = 6,                 // 2.7
  kMeadows = 7,                // 2.8
  kAlpineAgricultural = 8,     // 2.9
  kForest = 9,                 // 3.10
  kBrushForest = 10,           // 3.11
  kWoods = 11,                 // 3.12
  kLakes = 12,                 // 4.13
  kRivers = 13,                // 4.14
  kUnproductiveVegetation = 14,  // 4.15
  kBareLand = 15,              // 4.16
  kGlaciers = 16,              // 4.17
};

inline constexpr int kNumLanduseCategories = 17;

// Paper code like "1.2" for kBuilding.
const char* LanduseCategoryCode(LanduseCategory category);

// Human-readable name like "building areas".
const char* LanduseCategoryName(LanduseCategory category);

LanduseGroup LanduseGroupOf(LanduseCategory category);

}  // namespace semitri::region

#endif  // SEMITRI_REGION_LANDUSE_H_
