// Tests for the extension modules: Douglas-Peucker simplification, STR
// bulk loading, sequential pattern mining.

#include <gtest/gtest.h>

#include "analytics/sequence_mining.h"
#include "common/rng.h"
#include "geo/segment.h"
#include "geo/simplify.h"
#include "index/rstar_tree.h"

namespace semitri {
namespace {

using geo::Point;

TEST(DouglasPeuckerTest, KeepsEndpointsOnly) {
  // Collinear points simplify to the two endpoints.
  std::vector<Point> line = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  auto kept = geo::DouglasPeuckerIndices(line, 0.1);
  EXPECT_EQ(kept, (std::vector<size_t>{0, 4}));
}

TEST(DouglasPeuckerTest, KeepsCorner) {
  std::vector<Point> line = {{0, 0}, {5, 0}, {10, 0}, {10, 5}, {10, 10}};
  auto kept = geo::DouglasPeuckerIndices(line, 0.5);
  EXPECT_EQ(kept, (std::vector<size_t>{0, 2, 4}));
}

TEST(DouglasPeuckerTest, ToleranceControlsDetail) {
  // A noisy sine-ish wiggle: smaller tolerance keeps more points.
  common::Rng rng(3);
  std::vector<Point> line;
  for (int i = 0; i <= 200; ++i) {
    line.push_back({i * 5.0, 20.0 * std::sin(i * 0.2)});
  }
  auto coarse = geo::DouglasPeuckerIndices(line, 15.0);
  auto fine = geo::DouglasPeuckerIndices(line, 1.0);
  EXPECT_LT(coarse.size(), fine.size());
  EXPECT_LT(fine.size(), line.size());
  EXPECT_GT(coarse.size(), 2u);
}

TEST(DouglasPeuckerTest, ErrorBoundHolds) {
  common::Rng rng(7);
  std::vector<Point> line;
  Point p{0, 0};
  for (int i = 0; i < 300; ++i) {
    p = p + Point{rng.Uniform(1.0, 5.0), rng.Gaussian(0, 3.0)};
    line.push_back(p);
  }
  const double tolerance = 8.0;
  std::vector<size_t> kept = geo::DouglasPeuckerIndices(line, tolerance);
  ASSERT_GE(kept.size(), 2u);
  EXPECT_EQ(kept.front(), 0u);
  EXPECT_EQ(kept.back(), line.size() - 1);
  // Every original point lies within tolerance of the chord between the
  // kept indices around it.
  for (size_t k = 1; k < kept.size(); ++k) {
    ASSERT_LT(kept[k - 1], kept[k]);
    geo::Segment chord(line[kept[k - 1]], line[kept[k]]);
    for (size_t i = kept[k - 1]; i <= kept[k]; ++i) {
      EXPECT_LE(chord.DistanceTo(line[i]), tolerance + 1e-9) << i;
    }
  }
}

TEST(DouglasPeuckerTest, DegenerateInputs) {
  EXPECT_TRUE(geo::DouglasPeuckerIndices({}, 1.0).empty());
  EXPECT_EQ(geo::DouglasPeuckerIndices({{1, 1}}, 1.0).size(), 1u);
  EXPECT_EQ(geo::DouglasPeuckerIndices({{1, 1}, {2, 2}}, 1.0).size(), 2u);
}

TEST(StrBulkLoadTest, QueryParityWithIncrementalTree) {
  common::Rng rng(11);
  using Tree = index::RStarTree<int>;
  std::vector<Tree::Entry> entries;
  Tree incremental(8);
  for (int i = 0; i < 3000; ++i) {
    Point min{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    geo::BoundingBox box(min, min + Point{rng.Uniform(0, 15),
                                          rng.Uniform(0, 15)});
    entries.push_back({box, i});
    incremental.Insert(box, i);
  }
  Tree bulk = Tree::BulkLoad(entries, 8);
  EXPECT_EQ(bulk.size(), 3000u);
  for (int q = 0; q < 50; ++q) {
    Point min{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    geo::BoundingBox query(min, min + Point{60, 60});
    auto a = incremental.Query(query);
    auto b = bulk.Query(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(StrBulkLoadTest, SupportsSubsequentInsert) {
  using Tree = index::RStarTree<int>;
  std::vector<Tree::Entry> entries;
  for (int i = 0; i < 500; ++i) {
    Point p{static_cast<double>(i % 25) * 10,
            static_cast<double>(i / 25) * 10};
    entries.push_back({geo::BoundingBox::FromPoint(p), i});
  }
  Tree tree = Tree::BulkLoad(entries);
  tree.Insert(geo::BoundingBox({999, 999}, {1000, 1000}), 9999);
  EXPECT_EQ(tree.size(), 501u);
  EXPECT_EQ(tree.Query(geo::BoundingBox({998, 998}, {1001, 1001})).size(),
            1u);
}

TEST(StrBulkLoadTest, EmptyAndSingle) {
  using Tree = index::RStarTree<int>;
  Tree empty = Tree::BulkLoad({});
  EXPECT_TRUE(empty.empty());
  Tree single = Tree::BulkLoad({{geo::BoundingBox({1, 1}, {2, 2}), 7}});
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.QueryPoint({1.5, 1.5}).size(), 1u);
}

TEST(StrBulkLoadTest, BalancedHeight) {
  using Tree = index::RStarTree<int>;
  common::Rng rng(13);
  std::vector<Tree::Entry> entries;
  for (int i = 0; i < 10000; ++i) {
    Point p{rng.Uniform(0, 5000), rng.Uniform(0, 5000)};
    entries.push_back({geo::BoundingBox::FromPoint(p), i});
  }
  Tree tree = Tree::BulkLoad(std::move(entries), 16);
  // STR packs nodes nearly full: 10k entries at fanout 16 -> height 4
  // at most (16^3 = 4096 < 10000 <= 16^4).
  EXPECT_LE(tree.Height(), 4u);
}

TEST(SequenceMiningTest, FindsDailyRoutine) {
  analytics::SequenceMiner miner;
  std::vector<std::vector<std::string>> days = {
      {"home", "work", "market", "home"},
      {"home", "work", "home"},
      {"home", "work", "market", "home"},
      {"home", "gym", "home"},
  };
  auto patterns = miner.Mine(days);
  ASSERT_FALSE(patterns.empty());
  // home -> work occurs in 3 of 4 days and must rank at the top.
  EXPECT_EQ(patterns[0].labels,
            (std::vector<std::string>{"home", "work"}));
  EXPECT_EQ(patterns[0].support, 3u);
  // The full errand loop occurs twice.
  bool found_loop = false;
  for (const auto& p : patterns) {
    if (p.labels == std::vector<std::string>{"home", "work", "market",
                                             "home"}) {
      found_loop = true;
      EXPECT_EQ(p.support, 2u);
    }
  }
  EXPECT_TRUE(found_loop);
}

TEST(SequenceMiningTest, SupportCountsSequencesNotOccurrences) {
  analytics::SequenceMiner miner;
  std::vector<std::vector<std::string>> days = {
      {"a", "b", "a", "b", "a", "b"},  // many occurrences, one sequence
      {"a", "b"},
  };
  auto patterns = miner.Mine(days);
  ASSERT_FALSE(patterns.empty());
  for (const auto& p : patterns) {
    if (p.labels == std::vector<std::string>{"a", "b"}) {
      EXPECT_EQ(p.support, 2u);
    }
  }
}

TEST(SequenceMiningTest, CollapseRepeats) {
  analytics::SequenceMinerConfig config;
  config.collapse_repeats = true;
  config.min_support = 2;
  analytics::SequenceMiner miner(config);
  std::vector<std::vector<std::string>> days = {
      {"home", "home", "work"},
      {"home", "work", "work"},
  };
  auto patterns = miner.Mine(days);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].labels,
            (std::vector<std::string>{"home", "work"}));
  EXPECT_EQ(patterns[0].support, 2u);
}

TEST(SequenceMiningTest, MinSupportFilters) {
  analytics::SequenceMinerConfig config;
  config.min_support = 3;
  analytics::SequenceMiner miner(config);
  std::vector<std::vector<std::string>> days = {
      {"x", "y"}, {"x", "y"}, {"p", "q"}};
  auto patterns = miner.Mine(days);
  EXPECT_TRUE(patterns.empty());
}

TEST(SequenceMiningTest, PatternToString) {
  analytics::SequencePattern p;
  p.labels = {"home", "work", "home"};
  EXPECT_EQ(p.ToString(), "home -> work -> home");
}

}  // namespace
}  // namespace semitri
