// Randomized stress tests ("fuzz-style", deterministic seeds):
//   * R*-tree under interleaved inserts/removes vs a brute-force oracle;
//   * preprocessing + segmentation on adversarial GPS streams;
//   * store Checkpoint()/Recover() round-trips on randomized content;
//   * world I/O round-trips on randomized worlds + malformed-input
//     rejection (every failure a Status, never UB — run these under
//     ASan/UBSan);
//   * KML export fed non-finite geometry.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "export/kml_writer.h"
#include "index/rstar_tree.h"
#include "io/world_io.h"
#include "store/semantic_trajectory_store.h"
#include "traj/preprocess.h"
#include "traj/segmentation.h"

namespace semitri {
namespace {

using geo::BoundingBox;
using geo::Point;

class RStarFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RStarFuzz, InterleavedInsertRemoveMatchesOracle) {
  common::Rng rng(GetParam());
  index::RStarTree<int> tree(6);
  std::map<int, BoundingBox> oracle;
  int next_id = 0;
  for (int op = 0; op < 3000; ++op) {
    double dice = rng.Uniform(0.0, 1.0);
    if (dice < 0.6 || oracle.empty()) {
      Point min{rng.Uniform(0, 500), rng.Uniform(0, 500)};
      BoundingBox box(min, min + Point{rng.Uniform(0, 10),
                                       rng.Uniform(0, 10)});
      tree.Insert(box, next_id);
      oracle[next_id] = box;
      ++next_id;
    } else {
      // Remove a random live entry.
      auto it = oracle.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(
                                             oracle.size()) - 1));
      ASSERT_TRUE(tree.Remove(it->second, it->first));
      oracle.erase(it);
    }
    if (op % 250 == 0) {
      ASSERT_EQ(tree.size(), oracle.size());
      Point min{rng.Uniform(0, 500), rng.Uniform(0, 500)};
      BoundingBox query(min, min + Point{50, 50});
      std::vector<int> got = tree.Query(query);
      std::sort(got.begin(), got.end());
      std::vector<int> expected;
      for (const auto& [id, box] : oracle) {
        if (box.Intersects(query)) expected.push_back(id);
      }
      ASSERT_EQ(got, expected) << "op " << op;
    }
  }
  // Final sweep: every live entry findable, every removed entry gone.
  for (const auto& [id, box] : oracle) {
    std::vector<int> hits = tree.Query(box);
    EXPECT_NE(std::find(hits.begin(), hits.end(), id), hits.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(PipelineRobustness, AdversarialGpsStreams) {
  // Streams with duplicates, out-of-order stamps, teleports, and
  // constant positions must never crash the computation layer and must
  // keep its output invariants.
  common::Rng rng(99);
  traj::Preprocessor preprocessor;
  traj::StopMoveSegmenter segmenter;
  for (int trial = 0; trial < 50; ++trial) {
    core::RawTrajectory t;
    double time = 0.0;
    int n = static_cast<int>(rng.UniformInt(0, 400));
    for (int i = 0; i < n; ++i) {
      core::GpsPoint p;
      double dice = rng.Uniform(0, 1);
      if (dice < 0.05) {
        time -= rng.Uniform(0, 5);  // clock glitch
      } else if (dice < 0.1) {
        time += rng.Uniform(100, 2000);  // gap
      } else {
        time += rng.Uniform(0.5, 30);
      }
      if (rng.Bernoulli(0.03)) {
        p.position = {rng.Uniform(-1e6, 1e6), rng.Uniform(-1e6, 1e6)};
      } else {
        p.position = {rng.Gaussian(0, 200), rng.Gaussian(0, 200)};
      }
      p.time = time;
      t.points.push_back(p);
    }
    core::RawTrajectory cleaned = preprocessor.Clean(t);
    // Cleaned stream is strictly time-ordered.
    for (size_t i = 1; i < cleaned.points.size(); ++i) {
      EXPECT_GT(cleaned.points[i].time, cleaned.points[i - 1].time);
    }
    std::vector<core::Episode> episodes = segmenter.Segment(cleaned);
    // Episodes partition the cleaned points.
    size_t covered = 0;
    size_t expected_begin = 0;
    for (const core::Episode& ep : episodes) {
      EXPECT_EQ(ep.begin, expected_begin);
      EXPECT_GT(ep.end, ep.begin);
      EXPECT_LE(ep.time_in, ep.time_out);
      covered += ep.num_points();
      expected_begin = ep.end;
    }
    EXPECT_EQ(covered, cleaned.points.size());
  }
}

TEST(StoreRobustness, RandomizedRoundTrips) {
  namespace fs = std::filesystem;
  common::Rng rng(123);
  std::string dir =
      (fs::temp_directory_path() / "semitri_fuzz_store").string();
  for (int trial = 0; trial < 5; ++trial) {
    fs::remove_all(dir);
    store::StoreConfig config;
    config.durable_dir = dir;
    store::SemanticTrajectoryStore store(config);
    size_t expected_records = 0, expected_semantic = 0;
    int num_trajectories = static_cast<int>(rng.UniformInt(1, 6));
    for (int t = 0; t < num_trajectories; ++t) {
      core::RawTrajectory raw;
      raw.id = t;
      raw.object_id = t % 3;
      int n = static_cast<int>(rng.UniformInt(1, 50));
      double time = 0.0;
      for (int i = 0; i < n; ++i) {
        time += rng.Uniform(1, 60);
        raw.points.push_back({{rng.Uniform(-1e4, 1e4),
                               rng.Uniform(-1e4, 1e4)},
                              time});
      }
      expected_records += raw.points.size();
      ASSERT_TRUE(store.PutRawTrajectory(raw).ok());
      core::StructuredSemanticTrajectory sst;
      sst.trajectory_id = t;
      sst.object_id = raw.object_id;
      sst.interpretation = "region";
      int m = static_cast<int>(rng.UniformInt(0, 10));
      for (int e = 0; e < m; ++e) {
        core::SemanticEpisode ep;
        ep.kind = rng.Bernoulli(0.5) ? core::EpisodeKind::kStop
                                     : core::EpisodeKind::kMove;
        ep.time_in = e * 100.0;
        ep.time_out = e * 100.0 + 50.0;
        ep.place = {core::PlaceKind::kRegion, rng.UniformInt(-1, 100)};
        if (rng.Bernoulli(0.7)) {
          ep.AddAnnotation("landuse", "1.2");
        }
        sst.episodes.push_back(ep);
      }
      expected_semantic += sst.episodes.size();
      ASSERT_TRUE(store.PutInterpretation(sst).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
    store::SemanticTrajectoryStore recovered;
    auto stats = recovered.Recover(dir);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->checkpoint_loaded);
    EXPECT_TRUE(recovered.ContentEquals(store));
    EXPECT_EQ(recovered.num_gps_records(), expected_records);
    EXPECT_EQ(recovered.num_semantic_episodes(), expected_semantic);
    EXPECT_EQ(recovered.num_trajectories(),
              static_cast<size_t>(num_trajectories));
  }
  fs::remove_all(dir);
}

TEST(WorldIoRobustness, RandomizedRoundTrips) {
  namespace fs = std::filesystem;
  common::Rng rng(321);
  std::string dir =
      (fs::temp_directory_path() / "semitri_fuzz_world").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (int trial = 0; trial < 5; ++trial) {
    // Regions: random mix of grid cells and polygons, names with CSV
    // metacharacters and extreme (but finite) coordinates.
    region::RegionSet regions;
    int num_regions = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < num_regions; ++i) {
      auto category = static_cast<region::LanduseCategory>(
          rng.UniformInt(0, 5));
      std::string name = rng.Bernoulli(0.5)
                             ? common::StrFormat("r,\"%d\"", i)
                             : common::StrFormat("region %d", i);
      if (rng.Bernoulli(0.5)) {
        geo::Point min{rng.Uniform(-1e8, 1e8), rng.Uniform(-1e8, 1e8)};
        regions.AddCell(
            geo::BoundingBox(min, min + geo::Point{rng.Uniform(0.001, 1e4),
                                                   rng.Uniform(0.001, 1e4)}),
            category, name);
      } else {
        geo::Point base{rng.Uniform(-1e6, 1e6), rng.Uniform(-1e6, 1e6)};
        regions.AddPolygon(
            geo::Polygon({base, base + geo::Point{rng.Uniform(1, 100), 0},
                          base + geo::Point{rng.Uniform(1, 100),
                                            rng.Uniform(1, 100)}}),
            category, name);
      }
    }
    std::string regions_path = dir + "/regions.csv";
    ASSERT_TRUE(io::SaveRegions(regions, regions_path).ok());
    auto loaded_regions = io::LoadRegions(regions_path);
    ASSERT_TRUE(loaded_regions.ok());
    ASSERT_EQ(loaded_regions->size(), regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      auto id = static_cast<core::PlaceId>(i);
      EXPECT_EQ(loaded_regions->Get(id).category, regions.Get(id).category);
      EXPECT_EQ(loaded_regions->Get(id).name, regions.Get(id).name);
      EXPECT_EQ(loaded_regions->Get(id).polygon.has_value(),
                regions.Get(id).polygon.has_value());
    }

    // Roads: random connected-ish graph.
    road::RoadNetwork roads;
    int num_nodes = static_cast<int>(rng.UniformInt(2, 30));
    for (int i = 0; i < num_nodes; ++i) {
      roads.AddNode({rng.Uniform(-1e5, 1e5), rng.Uniform(-1e5, 1e5)});
    }
    int num_segments = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < num_segments; ++i) {
      auto from = rng.UniformInt(0, num_nodes - 1);
      auto to = rng.UniformInt(0, num_nodes - 1);
      if (from == to) to = (to + 1) % num_nodes;
      roads.AddSegment(from, to,
                       static_cast<road::RoadType>(rng.UniformInt(0, 4)),
                       common::StrFormat("road \"%d\", fuzz", i));
    }
    std::string roads_path = dir + "/roads.csv";
    ASSERT_TRUE(io::SaveRoadNetwork(roads, roads_path).ok());
    auto loaded_roads = io::LoadRoadNetwork(roads_path);
    ASSERT_TRUE(loaded_roads.ok());
    ASSERT_EQ(loaded_roads->num_segments(), roads.num_segments());
    for (size_t s = 0; s < roads.num_segments(); ++s) {
      auto id = static_cast<core::PlaceId>(s);
      EXPECT_EQ(loaded_roads->segment(id).name, roads.segment(id).name);
      EXPECT_EQ(loaded_roads->segment(id).type, roads.segment(id).type);
      EXPECT_NEAR(loaded_roads->segment(id).Length(),
                  roads.segment(id).Length(), 1e-3);
    }

    // POIs with round-trippable positions and hostile names.
    poi::PoiSet pois({"a", "b,c", "d\"e\""});
    int num_pois = static_cast<int>(rng.UniformInt(0, 50));
    for (int i = 0; i < num_pois; ++i) {
      pois.Add({rng.Uniform(-1e6, 1e6), rng.Uniform(-1e6, 1e6)},
               static_cast<int>(rng.UniformInt(0, 2)),
               common::StrFormat("poi,%d", i));
    }
    std::string pois_path = dir + "/pois.csv";
    std::string categories_path = dir + "/poi_categories.csv";
    ASSERT_TRUE(io::SavePois(pois, pois_path, categories_path).ok());
    auto loaded_pois = io::LoadPois(pois_path, categories_path);
    ASSERT_TRUE(loaded_pois.ok());
    ASSERT_EQ(loaded_pois->size(), pois.size());
    ASSERT_EQ(loaded_pois->num_categories(), pois.num_categories());
  }
  fs::remove_all(dir);
}

TEST(WorldIoRobustness, MalformedRowsRejectedAsStatus) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() / "semitri_fuzz_world_bad").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto write = [&](const std::string& name, const std::string& content) {
    std::ofstream out(dir + "/" + name);
    out << content;
    return dir + "/" + name;
  };
  // Each corruption must surface as kCorruption — short rows, numeric
  // garbage, nan/inf smuggled into coordinate fields, broken rings.
  const char* kRegionHeader = "id,category,name,min_x,min_y,max_x,max_y,ring\n";
  for (const std::string& row :
       {std::string("0,1,x,0,0\n"), std::string("0,zero,x,0,0,1,1,\n"),
        std::string("0,1,x,nan,0,1,1,\n"), std::string("0,1,x,0,inf,1,1,\n"),
        std::string("0,1,x,0,0,1,1,\"5 5;bad\"\n"),
        std::string("0,1,x,0,0,1,1,\"1 2;3\"\n")}) {
    std::string path = write("regions.csv", kRegionHeader + row);
    auto loaded = io::LoadRegions(path);
    ASSERT_FALSE(loaded.ok()) << row;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kCorruption) << row;
  }
  const char* kRoadHeader = "id,from,to,type,name,ax,ay,bx,by\n";
  for (const std::string& row :
       {std::string("0,1,2,0,x,0,0,1\n"), std::string("0,a,2,0,x,0,0,1,1\n"),
        std::string("0,1,2,0,x,nan,0,1,1\n"),
        std::string("0,1,2,0,x,0,0,1,-inf\n"),
        std::string("0,1,2,ten,x,0,0,1,1\n")}) {
    std::string path = write("roads.csv", kRoadHeader + row);
    auto loaded = io::LoadRoadNetwork(path);
    ASSERT_FALSE(loaded.ok()) << row;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kCorruption) << row;
  }
  std::string categories = write("poi_categories.csv", "id,name\n0,bar\n");
  const char* kPoiHeader = "id,category,name,x,y\n";
  for (const std::string& row :
       {std::string("0,0,x,1\n"), std::string("0,seven,x,1,2\n"),
        std::string("0,0,x,nan,2\n"), std::string("0,0,x,1,1e999\n"),
        std::string("0,5,x,1,2\n")}) {  // category out of range
    std::string path = write("pois.csv", kPoiHeader + row);
    auto loaded = io::LoadPois(path, categories);
    ASSERT_FALSE(loaded.ok()) << row;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kCorruption) << row;
  }
  fs::remove_all(dir);
}

TEST(WorldIoRobustness, NonFiniteGeometryRejectedOnSave) {
  namespace fs = std::filesystem;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  std::string dir =
      (fs::temp_directory_path() / "semitri_fuzz_world_nonfinite").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  region::RegionSet regions;
  regions.AddCell(geo::BoundingBox({0, kNan}, {1, 1}),
                  region::LanduseCategory::kBuilding);
  common::Status status = io::SaveRegions(regions, dir + "/regions.csv");
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);

  road::RoadNetwork roads;
  road::NodeId a = roads.AddNode({0, 0});
  road::NodeId b = roads.AddNode(
      {std::numeric_limits<double>::infinity(), 0});
  roads.AddSegment(a, b, road::RoadType::kArterial, "bad");
  status = io::SaveRoadNetwork(roads, dir + "/roads.csv");
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);

  poi::PoiSet pois({"cat"});
  pois.Add({kNan, kNan}, 0, "lost");
  status = io::SavePois(pois, dir + "/pois.csv", dir + "/cats.csv");
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(KmlRobustness, NonFiniteCoordinatesNeverReachTheFile) {
  namespace fs = std::filesystem;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  export_::KmlWriter writer(geo::LocalProjection({46.52, 6.63}));
  core::RawTrajectory bad;
  bad.id = 7;
  bad.points.push_back({{0.0, 0.0}, 0.0});
  bad.points.push_back({{kNan, 100.0}, 10.0});
  writer.AddTrajectory(bad, "corrupted trace");
  EXPECT_FALSE(writer.status().ok());

  core::Episode stop;
  stop.kind = core::EpisodeKind::kStop;
  stop.begin = 0;
  stop.end = 1;
  stop.center = {std::numeric_limits<double>::infinity(), 0.0};
  writer.AddStops(bad, {stop});

  // The poisoned document refuses to write, and nothing was emitted.
  std::string path =
      (fs::temp_directory_path() / "semitri_fuzz_bad.kml").string();
  fs::remove(path);
  common::Status status = writer.WriteFile(path);
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(writer.ToString().find("nan"), std::string::npos);
  EXPECT_EQ(writer.ToString().find("inf"), std::string::npos);

  // A clean writer with finite geometry still exports normally.
  export_::KmlWriter clean(geo::LocalProjection({46.52, 6.63}));
  core::RawTrajectory good;
  good.id = 8;
  good.points.push_back({{0.0, 0.0}, 0.0});
  good.points.push_back({{50.0, 50.0}, 10.0});
  clean.AddTrajectory(good, "fine");
  EXPECT_TRUE(clean.status().ok());
  ASSERT_TRUE(clean.WriteFile(path).ok());
  EXPECT_TRUE(fs::exists(path));
  fs::remove(path);
}

}  // namespace
}  // namespace semitri
