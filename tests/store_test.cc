// Tests for the Semantic Trajectory Store: table semantics and the CSV
// export.

#include "store/semantic_trajectory_store.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace semitri::store {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

core::RawTrajectory MakeTrajectory(core::TrajectoryId id,
                                   core::ObjectId object, int n) {
  core::RawTrajectory t;
  t.id = id;
  t.object_id = object;
  for (int i = 0; i < n; ++i) {
    t.points.push_back({{i * 2.0, i * 3.0}, i * 10.0});
  }
  return t;
}

std::vector<core::Episode> MakeEpisodes(const core::RawTrajectory& t) {
  core::Episode stop;
  stop.kind = core::EpisodeKind::kStop;
  stop.begin = 0;
  stop.end = t.size() / 2;
  stop.time_in = 0;
  stop.time_out = 40;
  stop.center = {1, 1};
  stop.bounds = geo::BoundingBox({0, 0}, {2, 2});
  core::Episode move = stop;
  move.kind = core::EpisodeKind::kMove;
  move.begin = t.size() / 2;
  move.end = t.size();
  return {stop, move};
}

core::StructuredSemanticTrajectory MakeInterpretation(
    core::TrajectoryId id, const std::string& name) {
  core::StructuredSemanticTrajectory t;
  t.trajectory_id = id;
  t.object_id = 9;
  t.interpretation = name;
  core::SemanticEpisode ep;
  ep.kind = core::EpisodeKind::kStop;
  ep.place = {core::PlaceKind::kRegion, 42};
  ep.time_in = 5;
  ep.time_out = 15;
  ep.AddAnnotation("landuse", "1.2");
  ep.AddAnnotation("region_name", "EPFL campus");
  t.episodes.push_back(ep);
  return t;
}

TEST(StoreTest, PutAndGetRoundTrip) {
  SemanticTrajectoryStore store;
  core::RawTrajectory t = MakeTrajectory(1, 9, 10);
  ASSERT_TRUE(store.PutRawTrajectory(t).ok());
  ASSERT_TRUE(store.PutEpisodes(1, MakeEpisodes(t)).ok());
  ASSERT_TRUE(store.PutInterpretation(MakeInterpretation(1, "region")).ok());

  auto raw = store.GetRawTrajectory(1);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 10u);
  EXPECT_EQ(raw->object_id, 9);

  auto episodes = store.GetEpisodes(1);
  ASSERT_TRUE(episodes.ok());
  EXPECT_EQ(episodes->size(), 2u);

  auto interp = store.GetInterpretation(1, "region");
  ASSERT_TRUE(interp.ok());
  EXPECT_EQ(interp->episodes[0].FindAnnotation("region_name"),
            "EPFL campus");

  EXPECT_FALSE(store.GetRawTrajectory(2).ok());
  EXPECT_FALSE(store.GetInterpretation(1, "line").ok());
}

TEST(StoreTest, CountsAndOverwrite) {
  SemanticTrajectoryStore store;
  core::RawTrajectory t = MakeTrajectory(1, 9, 10);
  ASSERT_TRUE(store.PutRawTrajectory(t).ok());
  EXPECT_EQ(store.num_gps_records(), 10u);
  // Overwrite with a shorter version.
  core::RawTrajectory shorter = MakeTrajectory(1, 9, 4);
  ASSERT_TRUE(store.PutRawTrajectory(shorter).ok());
  EXPECT_EQ(store.num_gps_records(), 4u);
  EXPECT_EQ(store.num_trajectories(), 1u);

  ASSERT_TRUE(store.PutInterpretation(MakeInterpretation(1, "region")).ok());
  ASSERT_TRUE(store.PutInterpretation(MakeInterpretation(1, "region")).ok());
  EXPECT_EQ(store.num_semantic_episodes(), 1u);
}

TEST(StoreTest, RejectsUnnamedInterpretation) {
  SemanticTrajectoryStore store;
  core::StructuredSemanticTrajectory t;
  t.trajectory_id = 1;
  EXPECT_EQ(store.PutInterpretation(t).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(StoreTest, ListTrajectories) {
  SemanticTrajectoryStore store;
  ASSERT_TRUE(store.PutRawTrajectory(MakeTrajectory(3, 1, 5)).ok());
  ASSERT_TRUE(store.PutRawTrajectory(MakeTrajectory(1, 1, 5)).ok());
  EXPECT_EQ(store.ListTrajectories(),
            (std::vector<core::TrajectoryId>{1, 3}));
}

TEST(StoreTest, SaveCsvWritesExportText) {
  std::string dir = (fs::temp_directory_path() / "semitri_store_csv").string();
  fs::remove_all(dir);
  SemanticTrajectoryStore store;
  core::RawTrajectory t = MakeTrajectory(7, 2, 3);
  t.points[1].position.x = 0.1;  // %.17g keeps every bit of it
  ASSERT_TRUE(store.PutRawTrajectory(t).ok());
  ASSERT_TRUE(store.PutEpisodes(7, MakeEpisodes(t)).ok());
  core::StructuredSemanticTrajectory region = MakeInterpretation(7, "region");
  region.episodes[0].source_episode = 0;
  core::SemanticEpisode move;
  move.kind = core::EpisodeKind::kMove;
  move.place = {core::PlaceKind::kRegion, 43};
  move.time_in = 15;
  move.time_out = 40.5;
  move.source_episode = 1;
  move.AddAnnotation("landuse", "1.3");
  move.AddAnnotation("region_name", "Av. Piccard, 1");
  region.episodes.push_back(move);
  ASSERT_TRUE(store.PutInterpretation(region).ok());
  ASSERT_TRUE(store.SaveCsv(dir).ok());

  EXPECT_EQ(ReadFile(dir + "/gps.csv"),
            "object_id,trajectory_id,x,y,t\n"
            "2,7,0,0,0\n"
            "2,7,0.10000000000000001,3,10\n"
            "2,7,4,6,20\n");
  EXPECT_EQ(ReadFile(dir + "/episodes.csv"),
            "trajectory_id,index,kind,begin,end,time_in,time_out,center_x,"
            "center_y,min_x,min_y,max_x,max_y\n"
            "7,0,stop,0,1,0,40,1,1,0,0,2,2\n"
            "7,1,move,1,3,0,40,1,1,0,0,2,2\n");
  // Annotations are `key=value;...`, CSV-quoted when they hold a comma.
  EXPECT_EQ(ReadFile(dir + "/semantic_episodes.csv"),
            "object_id,trajectory_id,interpretation,index,kind,place_kind,"
            "place_id,time_in,time_out,annotations,source_episode\n"
            "9,7,region,0,stop,region,42,5,15,"
            "landuse=1.2;region_name=EPFL campus,0\n"
            "9,7,region,1,move,region,43,15,40.5,"
            "\"landuse=1.3;region_name=Av. Piccard, 1\",1\n");
  fs::remove_all(dir);
}

TEST(StoreTest, SaveCsvWritesSourceEpisode) {
  std::string dir =
      (fs::temp_directory_path() / "semitri_source_episode").string();
  fs::remove_all(dir);
  core::StructuredSemanticTrajectory t = MakeInterpretation(3, "region");
  t.episodes[0].source_episode = 7;
  // A derived sub-episode keeps the SIZE_MAX "no source" marker.
  t.episodes.push_back(t.episodes[0]);
  t.episodes[1].source_episode = SIZE_MAX;
  SemanticTrajectoryStore store;
  ASSERT_TRUE(store.PutInterpretation(t).ok());
  ASSERT_TRUE(store.SaveCsv(dir).ok());
  EXPECT_EQ(ReadFile(dir + "/semantic_episodes.csv"),
            "object_id,trajectory_id,interpretation,index,kind,place_kind,"
            "place_id,time_in,time_out,annotations,source_episode\n"
            "9,3,region,0,stop,region,42,5,15,"
            "landuse=1.2;region_name=EPFL campus,7\n"
            "9,3,region,1,stop,region,42,5,15,"
            "landuse=1.2;region_name=EPFL campus,18446744073709551615\n");
  fs::remove_all(dir);
}

TEST(StoreTest, ContentEqualsDetectsDifferences) {
  SemanticTrajectoryStore a;
  SemanticTrajectoryStore b;
  EXPECT_TRUE(a.ContentEquals(b));
  core::RawTrajectory t = MakeTrajectory(1, 9, 4);
  ASSERT_TRUE(a.PutRawTrajectory(t).ok());
  EXPECT_FALSE(a.ContentEquals(b));
  ASSERT_TRUE(b.PutRawTrajectory(t).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  // A one-bit float difference must be visible.
  t.points[2].position.x += 1e-12;
  ASSERT_TRUE(b.PutRawTrajectory(t).ok());
  EXPECT_FALSE(a.ContentEquals(b));
}

}  // namespace
}  // namespace semitri::store
