// Tests for the R*-tree: box, point, radius and nearest-neighbor queries
// against brute force, bulk loading against incremental insertion,
// height bounds, clustered data, fanout sweeps.

#include "index/rstar_tree.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/box.h"

namespace semitri::index {
namespace {

using geo::BoundingBox;
using geo::Point;

BoundingBox RandomBox(common::Rng& rng, double extent, double max_size) {
  Point min{rng.Uniform(0.0, extent), rng.Uniform(0.0, extent)};
  Point size{rng.Uniform(0.0, max_size), rng.Uniform(0.0, max_size)};
  return {min, min + size};
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree<int> tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Query(BoundingBox({0, 0}, {100, 100})).empty());
  EXPECT_TRUE(tree.QueryRadius({50, 50}, 10.0).empty());
  EXPECT_TRUE(tree.NearestNeighbors({0, 0}, 3).empty());
}

TEST(RStarTreeTest, SingleEntry) {
  RStarTree<int> tree;
  tree.Insert(BoundingBox({1, 1}, {2, 2}), 42);
  EXPECT_EQ(tree.size(), 1u);
  auto hits = tree.Query(BoundingBox({0, 0}, {3, 3}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(tree.Query(BoundingBox({5, 5}, {6, 6})).empty());
}

TEST(RStarTreeTest, BoxQueryMatchesBruteForce) {
  common::Rng rng(7);
  RStarTree<int> tree;
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 2000; ++i) {
    BoundingBox b = RandomBox(rng, 1000.0, 20.0);
    boxes.push_back(b);
    tree.Insert(b, i);
  }
  EXPECT_EQ(tree.size(), 2000u);
  for (int q = 0; q < 50; ++q) {
    BoundingBox query = RandomBox(rng, 1000.0, 80.0);
    std::vector<int> got = tree.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int> expected;
    for (int i = 0; i < 2000; ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(RStarTreeTest, PointQueryMatchesBruteForce) {
  common::Rng rng(11);
  RStarTree<int> tree;
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 500; ++i) {
    BoundingBox b = RandomBox(rng, 200.0, 15.0);
    boxes.push_back(b);
    tree.Insert(b, i);
  }
  for (int q = 0; q < 100; ++q) {
    Point p{rng.Uniform(0.0, 220.0), rng.Uniform(0.0, 220.0)};
    std::vector<int> got = tree.QueryPoint(p);
    std::sort(got.begin(), got.end());
    std::vector<int> expected;
    for (int i = 0; i < 500; ++i) {
      if (boxes[static_cast<size_t>(i)].Contains(p)) expected.push_back(i);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(RStarTreeTest, RadiusQueryMatchesBruteForce) {
  common::Rng rng(17);
  RStarTree<int> tree;
  std::vector<Point> points;
  for (int i = 0; i < 600; ++i) {
    Point p{rng.Uniform(0.0, 300.0), rng.Uniform(0.0, 300.0)};
    points.push_back(p);
    tree.Insert(BoundingBox::FromPoint(p), i);
  }
  for (int q = 0; q < 30; ++q) {
    Point query{rng.Uniform(0.0, 300.0), rng.Uniform(0.0, 300.0)};
    double radius = rng.Uniform(5.0, 60.0);
    std::vector<int> got = tree.QueryRadius(query, radius);
    std::sort(got.begin(), got.end());
    std::vector<int> expected;
    for (int i = 0; i < 600; ++i) {
      if (points[static_cast<size_t>(i)].DistanceTo(query) <= radius) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(RStarTreeTest, NearestNeighborsOrderedAndCorrect) {
  common::Rng rng(13);
  RStarTree<int> tree;
  std::vector<Point> points;
  for (int i = 0; i < 800; ++i) {
    Point p{rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    points.push_back(p);
    tree.Insert(BoundingBox::FromPoint(p), i);
  }
  for (int q = 0; q < 20; ++q) {
    Point query{rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    auto nn = tree.NearestNeighbors(query, 10);
    ASSERT_EQ(nn.size(), 10u);
    // Returned in nondecreasing distance order.
    for (size_t i = 1; i < nn.size(); ++i) {
      EXPECT_LE(nn[i - 1].box.DistanceTo(query),
                nn[i].box.DistanceTo(query) + 1e-12);
    }
    // Matches brute-force k-th distance.
    std::vector<double> dists;
    for (const Point& p : points) dists.push_back(p.DistanceTo(query));
    std::sort(dists.begin(), dists.end());
    EXPECT_NEAR(nn.back().box.DistanceTo(query), dists[9], 1e-9);
  }
}

TEST(RStarTreeTest, NearestNeighborsWithFewerEntriesThanK) {
  RStarTree<int> tree;
  tree.Insert(BoundingBox::FromPoint({1, 1}), 0);
  tree.Insert(BoundingBox::FromPoint({2, 2}), 1);
  auto nn = tree.NearestNeighbors({0, 0}, 10);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].value, 0);
  EXPECT_EQ(nn[1].value, 1);
}

TEST(RStarTreeTest, BulkLoadAgreesWithIncrementalInsert) {
  common::Rng rng(19);
  std::vector<RStarTree<int>::Entry> entries;
  RStarTree<int> incremental;
  for (int i = 0; i < 1200; ++i) {
    BoundingBox b = RandomBox(rng, 400.0, 10.0);
    entries.push_back({b, i});
    incremental.Insert(b, i);
  }
  RStarTree<int> bulk = RStarTree<int>::BulkLoad(entries);
  EXPECT_EQ(bulk.size(), incremental.size());
  for (int q = 0; q < 40; ++q) {
    BoundingBox query = RandomBox(rng, 400.0, 40.0);
    std::vector<int> a = bulk.Query(query);
    std::vector<int> b = incremental.Query(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
  for (int q = 0; q < 20; ++q) {
    Point p{rng.Uniform(0.0, 400.0), rng.Uniform(0.0, 400.0)};
    auto a = bulk.NearestNeighbors(p, 5);
    auto b = incremental.NearestNeighbors(p, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].box.DistanceTo(p), b[i].box.DistanceTo(p), 1e-9);
    }
  }
}

TEST(RStarTreeTest, InsertOutsideInitialExtentStillFound) {
  RStarTree<int> tree;
  for (int i = 0; i < 50; ++i) {
    tree.Insert(BoundingBox::FromPoint({double(i), double(i)}), i);
  }
  // Far outside everything inserted so far.
  tree.Insert(BoundingBox::FromPoint({1e5, -1e5}), 999);
  auto hits = tree.QueryPoint({1e5, -1e5});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 999);
  auto nn = tree.NearestNeighbors({1e5, -1e5}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].value, 999);
  EXPECT_TRUE(tree.Bounds().Contains({1e5, -1e5}));
}

TEST(RStarTreeTest, DuplicateBoxesAllRetrievable) {
  RStarTree<int> tree(4);
  BoundingBox b({5, 5}, {6, 6});
  for (int i = 0; i < 50; ++i) tree.Insert(b, i);
  std::vector<int> hits = tree.Query(b);
  EXPECT_EQ(hits.size(), 50u);
}

TEST(RStarTreeTest, DuplicateBoxesAllRetrievableDefaultFanout) {
  // 50 identical boxes still overflow a fanout-16 node several times.
  RStarTree<int> tree;
  BoundingBox b({5, 5}, {6, 6});
  for (int i = 0; i < 50; ++i) tree.Insert(b, i);
  EXPECT_EQ(tree.Query(b).size(), 50u);
}

TEST(RStarTreeTest, HeightGrowsLogarithmically) {
  common::Rng rng(31);
  RStarTree<int> tree(16);
  for (int i = 0; i < 10000; ++i) {
    tree.Insert(RandomBox(rng, 10000.0, 5.0), i);
  }
  // With fanout ~16 and min fill ~6, 10k entries need height <= 6.
  EXPECT_LE(tree.Height(), 6u);
  EXPECT_GE(tree.Height(), 3u);
}

TEST(RStarTreeTest, ClusteredDataStillCorrect) {
  // Pathological input: tight clusters stress forced reinsertion.
  common::Rng rng(37);
  RStarTree<int> tree(8);
  std::vector<Point> points;
  for (int cluster = 0; cluster < 20; ++cluster) {
    Point c{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    for (int i = 0; i < 100; ++i) {
      Point p = c + Point{rng.Gaussian(0.0, 1.0), rng.Gaussian(0.0, 1.0)};
      points.push_back(p);
      tree.Insert(BoundingBox::FromPoint(p), static_cast<int>(points.size()) - 1);
    }
  }
  for (int q = 0; q < 20; ++q) {
    Point query{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    double radius = 50.0;
    std::vector<int> got = tree.QueryRadius(query, radius);
    size_t expected = 0;
    for (const Point& p : points) {
      if (p.DistanceTo(query) <= radius) ++expected;
    }
    EXPECT_EQ(got.size(), expected);
  }
}

// Property-style sweep: brute-force parity across tree fanouts.
class RStarTreeFanout : public ::testing::TestWithParam<size_t> {};

TEST_P(RStarTreeFanout, ParityAcrossFanouts) {
  common::Rng rng(GetParam());
  RStarTree<int> tree(GetParam());
  std::vector<BoundingBox> boxes;
  for (int i = 0; i < 1000; ++i) {
    BoundingBox b = RandomBox(rng, 500.0, 12.0);
    boxes.push_back(b);
    tree.Insert(b, i);
  }
  for (int q = 0; q < 25; ++q) {
    BoundingBox query = RandomBox(rng, 500.0, 50.0);
    std::vector<int> got = tree.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int> expected;
    for (int i = 0; i < 1000; ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, RStarTreeFanout,
                         ::testing::Values(4, 6, 8, 16, 32, 64));

}  // namespace
}  // namespace semitri::index
