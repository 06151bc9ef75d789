// Tests for the spatial predicate vocabulary (paper §4.1's directional /
// distance / topological join predicates).

#include <gtest/gtest.h>

#include "geo/relations.h"

namespace semitri {
namespace {

using geo::BoundingBox;
using geo::Point;

const BoundingBox kUnit({0, 0}, {10, 10});

TEST(SpatialRelationsTest, Topological) {
  BoundingBox inner({2, 2}, {8, 8});
  BoundingBox overlapping({5, 5}, {15, 15});
  BoundingBox far({20, 20}, {30, 30});
  BoundingBox touching({10, 0}, {20, 10});

  EXPECT_TRUE(geo::Contains(kUnit, inner));
  EXPECT_TRUE(geo::Within(inner, kUnit));
  EXPECT_FALSE(geo::Within(kUnit, inner));

  EXPECT_TRUE(geo::Overlaps(kUnit, overlapping));
  EXPECT_FALSE(geo::Overlaps(kUnit, inner));  // containment, not overlap
  EXPECT_FALSE(geo::Overlaps(kUnit, far));

  EXPECT_TRUE(geo::Touches(kUnit, touching));
  EXPECT_FALSE(geo::Touches(kUnit, overlapping));
  EXPECT_FALSE(geo::Touches(kUnit, far));

  EXPECT_TRUE(geo::Disjoint(kUnit, far));
  EXPECT_FALSE(geo::Disjoint(kUnit, touching));

  EXPECT_TRUE(geo::Equals(kUnit, BoundingBox({0, 0}, {10, 10})));
  EXPECT_FALSE(geo::Equals(kUnit, inner));
}

TEST(SpatialRelationsTest, SelfRelations) {
  EXPECT_TRUE(geo::Contains(kUnit, kUnit));
  EXPECT_TRUE(geo::Within(kUnit, kUnit));
  EXPECT_FALSE(geo::Overlaps(kUnit, kUnit));
  EXPECT_TRUE(geo::Equals(kUnit, kUnit));
}

TEST(SpatialRelationsTest, Distance) {
  BoundingBox right({13, 0}, {20, 10});
  BoundingBox diagonal({13, 14}, {20, 20});
  EXPECT_DOUBLE_EQ(geo::MinDistance(kUnit, right), 3.0);
  EXPECT_DOUBLE_EQ(geo::MinDistance(kUnit, diagonal), 5.0);
  EXPECT_DOUBLE_EQ(geo::MinDistance(kUnit, kUnit), 0.0);
  EXPECT_TRUE(geo::WithinDistance(kUnit, right, 3.0));
  EXPECT_FALSE(geo::WithinDistance(kUnit, right, 2.9));
}

TEST(SpatialRelationsTest, Directional) {
  BoundingBox north({0, 20}, {10, 30});
  BoundingBox east({20, 0}, {30, 10});
  EXPECT_TRUE(geo::NorthOf(north, kUnit));
  EXPECT_TRUE(geo::SouthOf(kUnit, north));
  EXPECT_FALSE(geo::NorthOf(kUnit, north));
  EXPECT_TRUE(geo::EastOf(east, kUnit));
  EXPECT_TRUE(geo::WestOf(kUnit, east));
}

TEST(SpatialRelationsTest, EvaluateByName) {
  BoundingBox inner({2, 2}, {8, 8});
  EXPECT_TRUE(geo::EvaluatePredicate(geo::SpatialPredicate::kContains,
                                     kUnit, inner));
  EXPECT_FALSE(geo::EvaluatePredicate(geo::SpatialPredicate::kDisjoint,
                                      kUnit, inner));
  EXPECT_STREQ(
      geo::SpatialPredicateName(geo::SpatialPredicate::kNorthOf),
      "north_of");
}

}  // namespace
}  // namespace semitri
