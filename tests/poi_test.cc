// Tests for the Semantic Point Annotation Layer: POI repository,
// Gaussian observation model (Lemma 1), discretization, and the
// HMM stop annotator (Algorithm 3) including the dense-area advantage
// over the nearest-POI baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "index/rstar_tree.h"
#include "poi/observation_model.h"
#include "poi/point_annotator.h"
#include "poi/poi_set.h"

namespace semitri::poi {
namespace {

using geo::Point;

TEST(PoiSetTest, MilanCategories) {
  PoiSet pois = PoiSet::MilanCategories();
  EXPECT_EQ(pois.num_categories(), 5u);
  EXPECT_EQ(pois.category_names()[2], "item sale");
}

TEST(PoiSetTest, PriorsMatchCategoryShares) {
  PoiSet pois = PoiSet::MilanCategories();
  // Milan proportions scaled down: 4, 7, 12, 15, 2 of 40.
  int counts[5] = {4, 7, 12, 15, 2};
  common::Rng rng(5);
  for (int c = 0; c < 5; ++c) {
    for (int i = 0; i < counts[c]; ++i) {
      pois.Add({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, c);
    }
  }
  auto priors = pois.CategoryPriors();
  EXPECT_DOUBLE_EQ(priors[0], 4.0 / 40.0);
  EXPECT_DOUBLE_EQ(priors[3], 15.0 / 40.0);
  double sum = 0.0;
  for (double p : priors) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(PoiSetTest, EmptyPriorsAreUniform) {
  PoiSet pois = PoiSet::MilanCategories();
  auto priors = pois.CategoryPriors();
  for (double p : priors) EXPECT_DOUBLE_EQ(p, 0.2);
}

TEST(PoiSetTest, NearestAndNearestOfCategory) {
  PoiSet pois = PoiSet::MilanCategories();
  core::PlaceId a = pois.Add({0, 0}, 0, "a");
  core::PlaceId b = pois.Add({100, 0}, 1, "b");
  core::PlaceId c = pois.Add({200, 0}, 1, "c");
  EXPECT_EQ(pois.Nearest({10, 0}), a);
  EXPECT_EQ(pois.NearestOfCategory({10, 0}, 1), b);
  EXPECT_EQ(pois.NearestOfCategory({210, 0}, 1), c);
  EXPECT_EQ(pois.NearestOfCategory({0, 0}, 4), core::kInvalidPlaceId);
}

TEST(PoiSetTest, WithinRadius) {
  PoiSet pois = PoiSet::MilanCategories();
  pois.Add({0, 0}, 0);
  pois.Add({30, 0}, 1);
  pois.Add({300, 0}, 2);
  EXPECT_EQ(pois.WithinRadius({0, 0}, 50.0).size(), 2u);
  EXPECT_EQ(pois.WithinRadius({0, 0}, 500.0).size(), 3u);
}

// NearestOfCategory as an expanding-k search: k-NN from scratch at
// k = 8, 16, 32, ... over `index` until a POI of the category turns up.
core::PlaceId ExpandingKNearestOfCategory(
    const PoiSet& pois, const index::RStarTree<core::PlaceId>& index,
    const Point& p, int category) {
  for (size_t k = 8;; k *= 2) {
    auto nn = index.NearestNeighbors(p, std::min(k, pois.size()));
    for (const auto& entry : nn) {
      if (pois.Get(entry.value).category == category) return entry.value;
    }
    if (nn.size() >= pois.size()) return core::kInvalidPlaceId;
  }
}

TEST(PoiSetTest, BoundedNearestOfCategoryMatchesExpandingKSearch) {
  PoiSet pois = PoiSet::MilanCategories();
  // The same inserts in the same order build the same tree as the
  // set's own index, so the expanding-k search sees its tie order.
  index::RStarTree<core::PlaceId> mirror;
  auto add = [&](Point position, int category) {
    core::PlaceId id = pois.Add(position, category);
    mirror.Insert(geo::BoundingBox::FromPoint(position), id);
  };
  common::Rng rng(23);
  // Categories 0-2 on a coarse integer lattice, so positions repeat and
  // distances tie; each position is also added twice more.
  for (int i = 0; i < 300; ++i) {
    Point position{static_cast<double>(rng.UniformInt(0, 40) * 25),
                   static_cast<double>(rng.UniformInt(0, 40) * 25)};
    int category = static_cast<int>(rng.UniformInt(0, 2));
    add(position, category);
    if (i % 10 == 0) {
      add(position, category);
      add(position, static_cast<int>(rng.UniformInt(0, 2)));
    }
  }
  // Category 3 lies beyond every radius below from every query;
  // category 4 ("unknown") stays empty.
  add({6000, 6000}, 3);
  add({6000, 6100}, 3);
  ASSERT_EQ(pois.category_counts()[4], 0u);

  const double kInf = std::numeric_limits<double>::infinity();
  const double radii[] = {150.0, 25.0, 0.0, kInf};
  size_t beyond_radius = 0;
  size_t tied = 0;
  for (int q = 0; q < 400; ++q) {
    // Half the queries on the lattice (exact hits and exact ties), half
    // anywhere.
    Point p = q % 2 == 0
                  ? Point{static_cast<double>(rng.UniformInt(0, 40) * 25),
                          static_cast<double>(rng.UniformInt(0, 40) * 25)}
                  : Point{rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)};
    for (int category = 0; category < kNumMilanCategories; ++category) {
      core::PlaceId expected =
          ExpandingKNearestOfCategory(pois, mirror, p, category);
      ASSERT_EQ(pois.NearestOfCategory(p, category), expected);
      if (expected == core::kInvalidPlaceId) continue;
      double best = pois.Get(expected).position.DistanceTo(p);
      size_t at_best = 0;
      for (const Poi& poi : pois.pois()) {
        at_best +=
            poi.category == category && poi.position.DistanceTo(p) == best;
      }
      if (at_best > 1) ++tied;
      for (double radius : radii) {
        // The place link: the expanding-k hit, kept only within the
        // radius.
        bool linked = best <= radius;
        if (!linked) ++beyond_radius;
        ASSERT_EQ(pois.NearestOfCategory(p, category, radius),
                  linked ? expected : core::kInvalidPlaceId)
            << "query (" << p.x << ", " << p.y << ") category " << category
            << " radius " << radius;
      }
    }
  }
  EXPECT_GT(beyond_radius, 0u);
  EXPECT_GT(tied, 0u);
}

TEST(ObservationModelTest, DensityPeaksAtPoiCluster) {
  PoiSet pois = PoiSet::MilanCategories();
  common::Rng rng(7);
  // Category-2 cluster at (200,200); category-0 cluster at (800,800).
  for (int i = 0; i < 30; ++i) {
    pois.Add({200 + rng.Gaussian(0, 30), 200 + rng.Gaussian(0, 30)}, 2);
    pois.Add({800 + rng.Gaussian(0, 30), 800 + rng.Gaussian(0, 30)}, 0);
  }
  PoiObservationModel model(&pois);
  auto near_item_sale = model.EmissionsAt({200, 200});
  EXPECT_GT(near_item_sale[2], near_item_sale[0]);
  auto near_services = model.EmissionsAt({800, 800});
  EXPECT_GT(near_services[0], near_services[2]);
}

TEST(ObservationModelTest, CellsFillOnFirstRead) {
  PoiSet pois = PoiSet::MilanCategories();
  pois.Add({100, 100}, 1);
  pois.Add({400, 300}, 2);
  PoiObservationModel model(&pois);
  EXPECT_EQ(model.cells_filled(), 0u);
  auto first = model.EmissionsAt({110, 120});
  EXPECT_EQ(model.cells_filled(), 1u);
  // A second read of the cell returns the same densities, filling
  // nothing.
  EXPECT_EQ(model.EmissionsAt({110, 120}), first);
  EXPECT_EQ(model.cells_filled(), 1u);
}

TEST(ObservationModelTest, DiscretizedApproximatesExact) {
  PoiSet pois = PoiSet::MilanCategories();
  common::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    pois.Add({rng.Uniform(0, 2000), rng.Uniform(0, 2000)},
             static_cast<int>(rng.UniformInt(0, 4)));
  }
  ObservationModelConfig config;
  config.grid_cell_meters = 40.0;
  config.neighbor_ring = 5;
  PoiObservationModel model(&pois, config);
  common::Rng qrng(11);
  for (int q = 0; q < 20; ++q) {
    Point p{qrng.Uniform(200, 1800), qrng.Uniform(200, 1800)};
    auto grid = model.EmissionsAt(p);
    auto exact = model.EmissionsExact(p);
    // The winning category must agree whenever the exact model has a
    // clear winner.
    size_t grid_best =
        std::max_element(grid.begin(), grid.end()) - grid.begin();
    size_t exact_best =
        std::max_element(exact.begin(), exact.end()) - exact.begin();
    double second = 0.0;
    for (size_t c = 0; c < exact.size(); ++c) {
      if (c != exact_best) second = std::max(second, exact[c]);
    }
    if (exact[exact_best] > 1.5 * second) {
      EXPECT_EQ(grid_best, exact_best) << "query " << q;
    }
  }
}

TEST(ObservationModelTest, CategorySigmaOverride) {
  PoiSet pois = PoiSet::MilanCategories();
  pois.Add({100, 100}, 0);
  ObservationModelConfig config;
  config.default_sigma_meters = 50.0;
  config.category_sigma = {200.0};  // category 0 spreads wide
  PoiObservationModel model(&pois, config);
  EXPECT_DOUBLE_EQ(model.SigmaFor(0), 200.0);
  EXPECT_DOUBLE_EQ(model.SigmaFor(1), 50.0);
}

TEST(ObservationModelTest, BoundingRectangleAveragesCells) {
  PoiSet pois = PoiSet::MilanCategories();
  pois.Add({100, 100}, 1);
  PoiObservationModel model(&pois);
  auto rect = model.EmissionsFor(
      geo::BoundingBox({50, 50}, {150, 150}));
  EXPECT_GT(rect[1], 0.0);
  EXPECT_DOUBLE_EQ(rect[0], 0.0);
}

// Builds a stop episode centered at p.
core::Episode StopAt(Point p, double t0, double t1) {
  core::Episode ep;
  ep.kind = core::EpisodeKind::kStop;
  ep.time_in = t0;
  ep.time_out = t1;
  ep.center = p;
  ep.bounds = geo::BoundingBox::FromPoint(p).Inflated(20.0);
  return ep;
}

class AnnotatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    pois_ = std::make_unique<PoiSet>(PoiSet::MilanCategories());
    common::Rng rng(13);
    // Dense mixed downtown around (500,500): many item-sale (2) with
    // scattered others; a services cluster (0) at (1500,500).
    for (int i = 0; i < 60; ++i) {
      pois_->Add({500 + rng.Gaussian(0, 60), 500 + rng.Gaussian(0, 60)}, 2);
    }
    for (int i = 0; i < 12; ++i) {
      pois_->Add({500 + rng.Gaussian(0, 60), 500 + rng.Gaussian(0, 60)},
                 static_cast<int>(rng.UniformInt(0, 4)));
    }
    for (int i = 0; i < 40; ++i) {
      pois_->Add({1500 + rng.Gaussian(0, 50), 500 + rng.Gaussian(0, 50)}, 0);
    }
  }
  std::unique_ptr<PoiSet> pois_;
};

TEST_F(AnnotatorFixture, DecodesDominantCategoryInDenseArea) {
  PointAnnotator annotator(pois_.get());
  std::vector<core::Episode> stops = {StopAt({505, 495}, 0, 3600),
                                      StopAt({1495, 505}, 4000, 7600)};
  auto categories = annotator.InferStopCategories(stops);
  ASSERT_TRUE(categories.ok());
  ASSERT_EQ(categories->size(), 2u);
  EXPECT_EQ((*categories)[0], 2);  // item sale downtown
  EXPECT_EQ((*categories)[1], 0);  // services cluster
}

TEST_F(AnnotatorFixture, AnnotateEmitsEpisodesWithPlaceLinks) {
  PointAnnotator annotator(pois_.get());
  core::RawTrajectory t;
  t.id = 3;
  std::vector<core::Episode> episodes = {StopAt({505, 495}, 0, 3600)};
  episodes[0].kind = core::EpisodeKind::kStop;
  auto out = annotator.Annotate(t, episodes);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->episodes.size(), 1u);
  const auto& ep = out->episodes[0];
  EXPECT_EQ(ep.FindAnnotation("poi_category"), "item sale");
  EXPECT_EQ(ep.place.kind, core::PlaceKind::kPoint);
  EXPECT_TRUE(ep.place.valid());
  EXPECT_EQ(pois_->Get(ep.place.id).category, 2);
}

TEST_F(AnnotatorFixture, MovesAreIgnored) {
  PointAnnotator annotator(pois_.get());
  core::Episode move = StopAt({505, 495}, 0, 100);
  move.kind = core::EpisodeKind::kMove;
  auto categories = annotator.InferStopCategories({move});
  ASSERT_TRUE(categories.ok());
  EXPECT_TRUE(categories->empty());
}

TEST_F(AnnotatorFixture, HmmBeatsNearestPoiOnAmbiguousStop) {
  // A stop whose *nearest* POI is an outlier of the wrong category but
  // whose neighborhood is dominated by item-sale POIs. The HMM's
  // density-summing observation model (Lemma 1) resists the outlier;
  // the one-to-one baseline does not.
  core::PlaceId outlier = pois_->Add({600, 600}, 4, "outlier");
  (void)outlier;
  PointAnnotator annotator(pois_.get());
  NearestPoiAnnotator baseline(pois_.get());
  std::vector<core::Episode> stops = {StopAt({599, 601}, 0, 3600)};
  auto hmm_categories = annotator.InferStopCategories(stops);
  ASSERT_TRUE(hmm_categories.ok());
  auto baseline_categories = baseline.InferStopCategories(stops);
  EXPECT_EQ(baseline_categories[0], 4);     // fooled by the outlier
  EXPECT_EQ((*hmm_categories)[0], 2);       // density wins
}

TEST_F(AnnotatorFixture, TransitionMatrixOverride) {
  PointAnnotatorConfig config;
  config.transition = hmm::MakeDefaultTransition(5, 0.4);
  PointAnnotator annotator(pois_.get(), config);
  EXPECT_DOUBLE_EQ(annotator.model().transition[0][0], 0.4);
  EXPECT_EQ(annotator.model().initial.size(), 5u);
}

TEST(PointAnnotatorEdge, NoStopsYieldsEmpty) {
  PoiSet pois = PoiSet::MilanCategories();
  pois.Add({0, 0}, 0);
  PointAnnotator annotator(&pois);
  auto categories = annotator.InferStopCategories({});
  ASSERT_TRUE(categories.ok());
  EXPECT_TRUE(categories->empty());
}


TEST(Fig6MatrixTest, MatchesPaperFigure) {
  auto a = Fig6TransitionMatrix();
  ASSERT_EQ(a.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)][static_cast<size_t>(j)],
                       i == j ? 0.80 : 0.05);
    }
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(a[4][static_cast<size_t>(j)], 0.15);
  }
  EXPECT_DOUBLE_EQ(a[4][4], 0.40);
  // Rows are stochastic.
  for (const auto& row : a) {
    double sum = 0.0;
    for (double p : row) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Fig6MatrixTest, UsedAsMilanDefault) {
  PoiSet pois = PoiSet::MilanCategories();
  pois.Add({0, 0}, 0);
  PointAnnotator annotator(&pois);  // 5 categories, default self 0.8
  EXPECT_DOUBLE_EQ(annotator.model().transition[4][4], 0.40);
  EXPECT_DOUBLE_EQ(annotator.model().transition[4][0], 0.15);
  // Explicit self-transition overrides fall back to the uniform form.
  PointAnnotatorConfig config;
  config.default_self_transition = 0.5;
  PointAnnotator overridden(&pois, config);
  EXPECT_DOUBLE_EQ(overridden.model().transition[4][4], 0.5);
}

}  // namespace
}  // namespace semitri::poi
