// Cell-geometry tests for the uniform grid index.

#include "index/grid_index.h"

#include <gtest/gtest.h>

namespace semitri::index {
namespace {

using geo::BoundingBox;
using geo::Point;

TEST(GridIndexTest, Dimensions) {
  GridIndex<int> grid(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_EQ(grid.cols(), 10u);
  EXPECT_EQ(grid.rows(), 5u);
  EXPECT_DOUBLE_EQ(grid.cell_size(), 10.0);
}

TEST(GridIndexTest, NonDivisibleExtentRoundsUp) {
  GridIndex<int> grid(BoundingBox({0, 0}, {95, 41}), 10.0);
  EXPECT_EQ(grid.cols(), 10u);
  EXPECT_EQ(grid.rows(), 5u);
}

TEST(GridIndexTest, CellOfClampsOutOfRange) {
  GridIndex<int> grid(BoundingBox({0, 0}, {100, 100}), 10.0);
  auto [cx1, cy1] = grid.CellOf(Point{-5, -5});
  EXPECT_EQ(cx1, 0u);
  EXPECT_EQ(cy1, 0u);
  auto [cx2, cy2] = grid.CellOf(Point{150, 150});
  EXPECT_EQ(cx2, 9u);
  EXPECT_EQ(cy2, 9u);
}

TEST(GridIndexTest, CellBoundsContainInsertedPoint) {
  GridIndex<int> grid(BoundingBox({0, 0}, {100, 100}), 10.0);
  Point p{37.5, 62.5};
  auto [cx, cy] = grid.CellOf(p);
  EXPECT_TRUE(grid.CellBounds(cx, cy).Contains(p));
  EXPECT_EQ(grid.CellCenter(cx, cy), grid.CellBounds(cx, cy).Center());
}

TEST(GridIndexTest, InsertAndRetrieve) {
  GridIndex<int> grid(BoundingBox({0, 0}, {100, 100}), 10.0);
  grid.Insert(Point{15, 15}, 1);
  grid.Insert(Point{16, 14}, 2);
  grid.Insert(Point{85, 85}, 3);
  // Ring 0 is the cell holding the point.
  EXPECT_EQ(grid.Neighborhood(Point{15, 15}, 0).size(), 2u);
}

TEST(GridIndexTest, GridWithoutInsertsHasEmptyNeighborhoods) {
  // A geometry-only grid: no Insert, so no buckets are allocated.
  GridIndex<int> grid(BoundingBox({0, 0}, {100, 100}), 10.0);
  EXPECT_TRUE(grid.Neighborhood(Point{55, 55}, 2).empty());
  // A copy of it buckets values of its own.
  GridIndex<int> buckets = grid;
  buckets.Insert(Point{55, 55}, 7);
  EXPECT_EQ(buckets.Neighborhood(Point{55, 55}, 0).size(), 1u);
  EXPECT_TRUE(grid.Neighborhood(Point{55, 55}, 2).empty());
}

TEST(GridIndexTest, NeighborhoodCoversRing) {
  GridIndex<int> grid(BoundingBox({0, 0}, {100, 100}), 10.0);
  // One value per cell center.
  int id = 0;
  for (size_t cy = 0; cy < grid.rows(); ++cy) {
    for (size_t cx = 0; cx < grid.cols(); ++cx) {
      grid.Insert(grid.CellCenter(cx, cy), id++);
    }
  }
  // Ring 1 around an interior cell covers 9 cells.
  EXPECT_EQ(grid.Neighborhood(Point{55, 55}, 1).size(), 9u);
  // Ring 2 covers 25.
  EXPECT_EQ(grid.Neighborhood(Point{55, 55}, 2).size(), 25u);
  // Corner cells clip the window.
  EXPECT_EQ(grid.Neighborhood(Point{5, 5}, 1).size(), 4u);
  // Ring 0 is the cell itself.
  EXPECT_EQ(grid.Neighborhood(Point{55, 55}, 0).size(), 1u);
}

}  // namespace
}  // namespace semitri::index
