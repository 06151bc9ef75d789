// Tests for the Semantic Region Annotation Layer: landuse ontology,
// region repository queries, Algorithm 1 tuple building/merging, and
// episode-level annotation.

#include <gtest/gtest.h>

#include "region/landuse.h"
#include "region/region_annotator.h"
#include "region/region_set.h"
#include "core/ingest.h"

namespace semitri::region {
namespace {

using core::EpisodeKind;
using geo::BoundingBox;
using geo::Point;

TEST(LanduseTest, CodesMatchPaperFig4) {
  EXPECT_STREQ(LanduseCategoryCode(LanduseCategory::kIndustrialCommercial),
               "1.1");
  EXPECT_STREQ(LanduseCategoryCode(LanduseCategory::kBuilding), "1.2");
  EXPECT_STREQ(LanduseCategoryCode(LanduseCategory::kTransportation), "1.3");
  EXPECT_STREQ(LanduseCategoryCode(LanduseCategory::kForest), "3.10");
  EXPECT_STREQ(LanduseCategoryCode(LanduseCategory::kGlaciers), "4.17");
  EXPECT_EQ(kNumLanduseCategories, 17);
}

TEST(LanduseTest, GroupsMatchPaperFig4) {
  EXPECT_EQ(LanduseGroupOf(LanduseCategory::kBuilding),
            LanduseGroup::kSettlement);
  EXPECT_EQ(LanduseGroupOf(LanduseCategory::kRecreational),
            LanduseGroup::kSettlement);
  EXPECT_EQ(LanduseGroupOf(LanduseCategory::kOrchard),
            LanduseGroup::kAgricultural);
  EXPECT_EQ(LanduseGroupOf(LanduseCategory::kWoods), LanduseGroup::kWooded);
  EXPECT_EQ(LanduseGroupOf(LanduseCategory::kLakes),
            LanduseGroup::kUnproductive);
}

RegionSet MakeCellGrid() {
  // 4 cells of 100 m: building, transport, building, forest.
  RegionSet regions;
  regions.AddCell(BoundingBox({0, 0}, {100, 100}),
                  LanduseCategory::kBuilding);
  regions.AddCell(BoundingBox({100, 0}, {200, 100}),
                  LanduseCategory::kTransportation);
  regions.AddCell(BoundingBox({200, 0}, {300, 100}),
                  LanduseCategory::kBuilding);
  regions.AddCell(BoundingBox({300, 0}, {400, 100}),
                  LanduseCategory::kForest);
  return regions;
}

TEST(RegionSetTest, FindContaining) {
  RegionSet regions = MakeCellGrid();
  auto hits = regions.FindContaining(Point{50, 50});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(regions.Get(hits[0]).category, LanduseCategory::kBuilding);
  EXPECT_TRUE(regions.FindContaining(Point{5000, 5000}).empty());
}

TEST(RegionSetTest, PolygonRefinement) {
  RegionSet regions;
  // Triangle region: bounding box contains (9,1) but the polygon does not.
  regions.AddPolygon(geo::Polygon({{0, 0}, {10, 10}, {0, 10}}),
                     LanduseCategory::kRecreational, "park");
  EXPECT_EQ(regions.FindContaining(Point{1, 9}).size(), 1u);
  EXPECT_TRUE(regions.FindContaining(Point{9, 1}).empty());
}

TEST(RegionSetTest, OverlappingRegions) {
  RegionSet regions = MakeCellGrid();
  regions.AddPolygon(
      geo::Polygon::FromBox(BoundingBox({0, 0}, {400, 100})),
      LanduseCategory::kSpecialUrban, "campus");
  auto hits = regions.FindContaining(Point{50, 50});
  EXPECT_EQ(hits.size(), 2u);
}

TEST(RegionAnnotatorTest, PrefersNamedRegions) {
  RegionSet regions = MakeCellGrid();
  regions.AddPolygon(
      geo::Polygon::FromBox(BoundingBox({40, 40}, {60, 60})),
      LanduseCategory::kSpecialUrban, "campus");
  RegionAnnotator annotator(&regions);
  core::PlaceId best = annotator.BestRegionFor(Point{50, 50});
  EXPECT_EQ(regions.Get(best).name, "campus");
  // Outside the named region the cell wins.
  core::PlaceId cell = annotator.BestRegionFor(Point{10, 10});
  EXPECT_EQ(regions.Get(cell).name, "");
}

core::RawTrajectory WalkAcrossCells() {
  // 40 points marching +10 m/s in x across the 4 cells.
  core::RawTrajectory t;
  t.id = 5;
  t.object_id = 2;
  for (int i = 0; i < 40; ++i) {
    t.points.push_back({{i * 10.0 + 5.0, 50.0}, static_cast<double>(i)});
  }
  return t;
}

TEST(RegionAnnotatorTest, Algorithm1MergesByCategory) {
  RegionSet regions = MakeCellGrid();
  RegionAnnotator annotator(&regions);  // default merge: by category
  core::StructuredSemanticTrajectory out =
      annotator.AnnotateTrajectory(WalkAcrossCells());
  // building, transport, building, forest -> 4 tuples (categories
  // alternate, no adjacent duplicates to merge).
  ASSERT_EQ(out.episodes.size(), 4u);
  EXPECT_EQ(out.episodes[0].FindAnnotation("landuse"), "1.2");
  EXPECT_EQ(out.episodes[1].FindAnnotation("landuse"), "1.3");
  EXPECT_EQ(out.episodes[2].FindAnnotation("landuse"), "1.2");
  EXPECT_EQ(out.episodes[3].FindAnnotation("landuse"), "3.10");
  EXPECT_EQ(out.interpretation, "region");
  EXPECT_EQ(out.trajectory_id, 5);
}

TEST(RegionAnnotatorTest, MergeByCategoryCompressesSameTypeCells) {
  // Two adjacent building cells -> one tuple: Algorithm 1 merges by
  // category.
  RegionSet regions;
  regions.AddCell(BoundingBox({0, 0}, {100, 100}),
                  LanduseCategory::kBuilding);
  regions.AddCell(BoundingBox({100, 0}, {200, 100}),
                  LanduseCategory::kBuilding);
  core::RawTrajectory t;
  for (int i = 0; i < 20; ++i) {
    t.points.push_back({{i * 10.0 + 5.0, 50.0}, static_cast<double>(i)});
  }
  RegionAnnotator by_category(&regions);
  EXPECT_EQ(by_category.AnnotateTrajectory(t).episodes.size(), 1u);
}

TEST(RegionAnnotatorTest, UncoveredPointsFormGapTuples) {
  RegionSet regions = MakeCellGrid();
  RegionAnnotator annotator(&regions);
  core::RawTrajectory t;
  // Inside, outside (y > 100), inside.
  for (int i = 0; i < 10; ++i) {
    t.points.push_back({{50.0, 50.0}, static_cast<double>(i)});
  }
  for (int i = 10; i < 20; ++i) {
    t.points.push_back({{50.0, 500.0}, static_cast<double>(i)});
  }
  for (int i = 20; i < 30; ++i) {
    t.points.push_back({{50.0, 50.0}, static_cast<double>(i)});
  }
  auto out = annotator.AnnotateTrajectory(t);
  ASSERT_EQ(out.episodes.size(), 3u);
  EXPECT_TRUE(out.episodes[0].place.valid());
  EXPECT_FALSE(out.episodes[1].place.valid());
  EXPECT_TRUE(out.episodes[2].place.valid());
}

TEST(RegionAnnotatorTest, EpisodeAnnotationStopUsesCenter) {
  RegionSet regions = MakeCellGrid();
  RegionAnnotator annotator(&regions);
  core::RawTrajectory t = WalkAcrossCells();
  core::Episode stop;
  stop.kind = EpisodeKind::kStop;
  stop.begin = 0;
  stop.end = 10;  // points at x = 5..95, center ~50 -> building cell
  stop.time_in = 0;
  stop.time_out = 9;
  stop.center = {50, 50};
  stop.bounds = BoundingBox({5, 50}, {95, 50});
  auto out = annotator.AnnotateEpisodes(t, {stop});
  ASSERT_EQ(out.episodes.size(), 1u);
  EXPECT_EQ(out.episodes[0].FindAnnotation("landuse"), "1.2");
  EXPECT_EQ(out.episodes[0].kind, EpisodeKind::kStop);
  EXPECT_EQ(out.episodes[0].source_episode, 0u);
}

TEST(RegionAnnotatorTest, EpisodeAnnotationMoveUsesMajority) {
  RegionSet regions = MakeCellGrid();
  RegionAnnotator annotator(&regions);
  core::RawTrajectory t;
  // 15 points in the transport cell, 3 in the first building cell.
  for (int i = 0; i < 3; ++i) {
    t.points.push_back({{50.0 + i, 50.0}, static_cast<double>(i)});
  }
  for (int i = 3; i < 18; ++i) {
    t.points.push_back({{150.0 + i, 50.0}, static_cast<double>(i)});
  }
  core::Episode move;
  move.kind = EpisodeKind::kMove;
  move.begin = 0;
  move.end = t.size();
  move.time_in = 0;
  move.time_out = 17;
  move.center = {130, 50};
  move.bounds = t.Bounds();
  auto out = annotator.AnnotateEpisodes(t, {move});
  ASSERT_EQ(out.episodes.size(), 1u);
  EXPECT_EQ(out.episodes[0].FindAnnotation("landuse"), "1.3");
}

TEST(GpsIngestTest, LatLonRoundTripThroughPipelineFrame) {
  std::vector<core::LatLonFix> fixes = {
      {{46.5200, 6.6300}, 0.0},
      {{46.5210, 6.6315}, 10.0},
      {{46.5220, 6.6330}, 20.0},
      {{91.0, 0.0}, 30.0},  // invalid latitude: dropped
  };
  auto ingestor = core::GpsIngestor::AroundCentroid(fixes);
  ASSERT_TRUE(ingestor.ok());
  std::vector<core::GpsPoint> local = ingestor->ToLocal(fixes);
  ASSERT_EQ(local.size(), 3u);
  // Spacing ~ 115 m per step at this latitude.
  double step = local[1].position.DistanceTo(local[0].position);
  EXPECT_NEAR(step, 157.0, 40.0);
  // Round trip.
  auto back = ingestor->ToLatLon(local);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_NEAR(back[0].position.lat, 46.52, 1e-9);
  EXPECT_NEAR(back[0].position.lon, 6.63, 1e-9);
  // Empty stream has no centroid.
  EXPECT_FALSE(core::GpsIngestor::AroundCentroid({}).ok());
}

}  // namespace
}  // namespace semitri::region
