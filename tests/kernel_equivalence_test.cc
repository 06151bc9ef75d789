// Bit-identical equivalence of the batched data-plane kernels against
// their scalar definitions.
//
// The golden-CRC suite (dataplane_equivalence_test.cc) pins the full
// pipeline; this suite pins each kernel in isolation so a drift points
// at the exact loop that introduced it. Every comparison is exact
// (EXPECT_EQ on doubles): the batched forms are required to perform
// the same operations in the same order as the scalar code, not merely
// to agree within a tolerance.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/presets.h"
#include "datagen/world.h"
#include "geo/kernels.h"
#include "geo/point.h"
#include "geo/segment.h"
#include "hmm/hmm.h"
#include "index/grid_index.h"
#include "poi/observation_model.h"
#include "road/road_network.h"
#include "traj/point_batch.h"

namespace semitri {
namespace {

datagen::World MakeWorld() {
  datagen::WorldConfig config;
  config.seed = 771;
  config.extent_meters = 3000.0;
  config.num_pois = 400;
  return datagen::WorldGenerator(config).Generate();
}

// --- geo kernels -----------------------------------------------------

TEST(GeoKernelEquivalenceTest, SegmentDistancesMatchScalarFuzz) {
  common::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 64));
    std::vector<geo::Segment> segments(n);
    std::vector<double> ax(n), ay(n), bx(n), by(n), batched(n);
    for (size_t i = 0; i < n; ++i) {
      segments[i].a = {rng.Uniform(-500.0, 500.0), rng.Uniform(-500.0, 500.0)};
      // Include degenerate (zero-length) segments.
      segments[i].b = trial % 7 == 0
                          ? segments[i].a
                          : geo::Point{rng.Uniform(-500.0, 500.0),
                                       rng.Uniform(-500.0, 500.0)};
      ax[i] = segments[i].a.x;
      ay[i] = segments[i].a.y;
      bx[i] = segments[i].b.x;
      by[i] = segments[i].b.y;
    }
    geo::Point q{rng.Uniform(-600.0, 600.0), rng.Uniform(-600.0, 600.0)};
    geo::DistancesToSegments(ax.data(), ay.data(), bx.data(), by.data(), n,
                             q.x, q.y, batched.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[i], segments[i].DistanceTo(q))
          << "lane " << i << " trial " << trial;
    }
  }
}

TEST(GeoKernelEquivalenceTest, SegmentDistancesMatchScalarOnRoadNetwork) {
  // Real geometry: every segment of the datagen road network against
  // every point of a simulated track.
  datagen::World world = MakeWorld();
  datagen::DatasetFactory factory(&world, /*seed=*/772);
  datagen::Dataset drive = factory.SeattleDrive(/*hours=*/0.1);
  ASSERT_FALSE(drive.tracks.empty());
  const road::RoadNetwork& roads = world.roads;
  const size_t m = roads.seg_ax().size();
  ASSERT_GT(m, 0u);
  std::vector<double> batched(m);
  size_t checked = 0;
  for (const core::GpsPoint& fix : drive.tracks.front().points) {
    if (++checked > 25) break;  // bounded: m distances per point
    geo::DistancesToSegments(roads.seg_ax().data(), roads.seg_ay().data(),
                             roads.seg_bx().data(), roads.seg_by().data(), m,
                             fix.position.x, fix.position.y, batched.data());
    for (size_t s = 0; s < m; ++s) {
      EXPECT_EQ(batched[s],
                roads.segment(static_cast<core::PlaceId>(s))
                    .shape.DistanceTo(fix.position));
    }
  }
}

TEST(GeoKernelEquivalenceTest, PointDistancesMatchScalarFuzz) {
  common::Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 64));
    std::vector<geo::Point> points(n);
    std::vector<double> xs(n), ys(n), batched(n);
    for (size_t i = 0; i < n; ++i) {
      points[i] = {rng.Uniform(-500.0, 500.0), rng.Uniform(-500.0, 500.0)};
      xs[i] = points[i].x;
      ys[i] = points[i].y;
    }
    geo::Point q{rng.Uniform(-600.0, 600.0), rng.Uniform(-600.0, 600.0)};
    geo::DistancesToPoints(xs.data(), ys.data(), n, q.x, q.y,
                           batched.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[i], q.DistanceTo(points[i]));
    }
  }
}

// --- poi Gaussian kernel ---------------------------------------------

TEST(PoiKernelEquivalenceTest, GaussianDensitiesMatchScalarFormula) {
  common::Rng rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
    size_t num_cat = static_cast<size_t>(rng.UniformInt(1, 6));
    std::vector<double> px(n), py(n), two_sigma2(n), norm(n);
    std::vector<int32_t> cat(n);
    for (size_t i = 0; i < n; ++i) {
      px[i] = rng.Uniform(-200.0, 200.0);
      py[i] = rng.Uniform(-200.0, 200.0);
      double sigma = rng.Uniform(5.0, 80.0);
      two_sigma2[i] = 2.0 * sigma * sigma;
      norm[i] = 2.0 * M_PI * sigma * sigma;
      cat[i] = static_cast<int32_t>(
          rng.UniformInt(0, static_cast<int>(num_cat) - 1));
    }
    double qx = rng.Uniform(-250.0, 250.0);
    double qy = rng.Uniform(-250.0, 250.0);
    std::vector<double> batched(num_cat, 0.0);
    poi::AccumulateGaussianDensities(px.data(), py.data(), two_sigma2.data(),
                                     norm.data(), cat.data(), n, qx, qy,
                                     batched.data());
    // Scalar reference: the seed's per-POI accumulation, same order.
    std::vector<double> scalar(num_cat, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double dx = qx - px[i];
      double dy = qy - py[i];
      double d2 = dx * dx + dy * dy;
      scalar[static_cast<size_t>(cat[i])] +=
          std::exp(-d2 / two_sigma2[i]) / norm[i];
    }
    for (size_t c = 0; c < num_cat; ++c) {
      EXPECT_EQ(batched[c], scalar[c]) << "category " << c;
    }
  }
}

TEST(PoiKernelEquivalenceTest, PrecomputedCellsMatchGatherPerCell) {
  // The row-slab cell fill against a literal Neighborhood gather per
  // cell (the seed's shape) — every cell, every category. The model's
  // grid holds no POIs, so the gather buckets them itself.
  datagen::World world = MakeWorld();
  poi::ObservationModelConfig config;
  poi::PoiObservationModel model(&world.pois, config);
  index::GridIndex<core::PlaceId> grid = model.grid();
  for (const poi::Poi& p : world.pois.pois()) grid.Insert(p.position, p.id);
  const size_t num_cat = world.pois.num_categories();
  std::vector<double> gx, gy, gs2, gn, expected;
  std::vector<int32_t> gc;
  for (size_t cy = 0; cy < grid.rows(); ++cy) {
    for (size_t cx = 0; cx < grid.cols(); ++cx) {
      geo::Point center = grid.CellCenter(cx, cy);
      gx.clear();
      gy.clear();
      gs2.clear();
      gn.clear();
      gc.clear();
      for (core::PlaceId id : grid.Neighborhood(center, config.neighbor_ring)) {
        const poi::Poi& p = world.pois.Get(id);
        double sigma = model.SigmaFor(p.category);
        gx.push_back(p.position.x);
        gy.push_back(p.position.y);
        gs2.push_back(2.0 * sigma * sigma);
        gn.push_back(2.0 * M_PI * sigma * sigma);
        gc.push_back(static_cast<int32_t>(p.category));
      }
      expected.assign(num_cat, 0.0);
      poi::AccumulateGaussianDensities(gx.data(), gy.data(), gs2.data(),
                                       gn.data(), gc.data(), gx.size(),
                                       center.x, center.y, expected.data());
      std::span<const double> cell = model.CellDensities(cx, cy);
      for (size_t c = 0; c < num_cat; ++c) {
        EXPECT_EQ(cell[c], expected[c]) << "cell " << cx << "," << cy;
      }
    }
  }
}

// Expects every cell of `model` to equal the same cell of `reference`
// read in row-major order, bit for bit.
void ExpectCellsMatchRowMajor(const poi::PoiObservationModel& model,
                              const poi::PoiObservationModel& reference) {
  const auto& grid = reference.grid();
  for (size_t cy = 0; cy < grid.rows(); ++cy) {
    for (size_t cx = 0; cx < grid.cols(); ++cx) {
      std::span<const double> want = reference.CellDensities(cx, cy);
      std::span<const double> got = model.CellDensities(cx, cy);
      for (size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c], want[c]) << "cell " << cx << "," << cy;
      }
    }
  }
}

TEST(PoiKernelEquivalenceTest, ScatteredFirstReadsMatchRowMajor) {
  // A cell's densities must not depend on which cells were filled
  // before it or on which reader filled it: fill every cell of one
  // model in a shuffled order through all three readers.
  datagen::World world = MakeWorld();
  poi::PoiObservationModel scattered(&world.pois);
  const auto& grid = scattered.grid();
  const size_t num_cells = grid.cols() * grid.rows();
  std::vector<size_t> order(num_cells);
  std::iota(order.begin(), order.end(), size_t{0});
  common::Rng rng(46);
  std::shuffle(order.begin(), order.end(), rng.engine());
  const double quarter = grid.cell_size() / 4.0;
  for (size_t k = 0; k < num_cells; ++k) {
    const size_t cx = order[k] % grid.cols();
    const size_t cy = order[k] / grid.cols();
    const geo::Point center = grid.CellCenter(cx, cy);
    if (k % 3 == 0) {
      (void)scattered.CellDensities(cx, cy);
    } else if (k % 3 == 1) {
      (void)scattered.EmissionsAt(center);
    } else {
      (void)scattered.EmissionsFor(geo::BoundingBox(
          {center.x - quarter, center.y - quarter},
          {center.x + quarter, center.y + quarter}));
    }
  }
  EXPECT_EQ(scattered.cells_filled(), num_cells);
  poi::PoiObservationModel row_major(&world.pois);
  ExpectCellsMatchRowMajor(scattered, row_major);
}

TEST(PoiKernelEquivalenceTest, ConcurrentFirstReadsMatchRowMajor) {
  // Four threads read the same new cells at once, two forward and two
  // backward, so every cell is contended; what each thread read must
  // equal a row-major fill of a second model. Under TSan this also
  // checks the fill's publication.
  datagen::World world = MakeWorld();
  poi::PoiObservationModel shared(&world.pois);
  const auto& grid = shared.grid();
  const size_t num_cells = grid.cols() * grid.rows();
  const size_t num_cat = shared.num_categories();
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> seen(
      kThreads, std::vector<double>(num_cells * num_cat));
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (size_t k = 0; k < num_cells; ++k) {
        const size_t cell = t % 2 == 0 ? k : num_cells - 1 - k;
        const size_t cx = cell % grid.cols();
        const size_t cy = cell / grid.cols();
        std::span<double> out(seen[t].data() + cell * num_cat, num_cat);
        if (k % 2 == 0) {
          std::span<const double> densities = shared.CellDensities(cx, cy);
          std::copy(densities.begin(), densities.end(), out.begin());
        } else {
          shared.EmissionsAtInto(grid.CellCenter(cx, cy), out);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(shared.cells_filled(), num_cells);
  poi::PoiObservationModel row_major(&world.pois);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t cell = 0; cell < num_cells; ++cell) {
      std::span<const double> want = row_major.CellDensities(
          cell % grid.cols(), cell / grid.cols());
      for (size_t c = 0; c < num_cat; ++c) {
        ASSERT_EQ(seen[t][cell * num_cat + c], want[c])
            << "thread " << t << " cell " << cell;
      }
    }
  }
  ExpectCellsMatchRowMajor(shared, row_major);
}

// --- flat Viterbi ----------------------------------------------------

// The seed's nested-vector Viterbi, kept verbatim as the reference.
hmm::ViterbiResult ReferenceViterbi(const hmm::HmmModel& model,
                                    const hmm::EmissionMatrix& emissions) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto safe_log = [](double p) { return p > 0.0 ? std::log(p) : kNegInf; };
  const size_t n = model.num_states();
  const size_t t_max = emissions.rows();
  auto effective_row = [&](size_t t) {
    std::vector<double> row(emissions.Row(t).begin(),
                            emissions.Row(t).end());
    double sum = 0.0;
    for (double v : row) sum += v;
    if (sum <= 0.0) {
      for (double& v : row) v = 1.0 / static_cast<double>(n);
    }
    return row;
  };
  std::vector<std::vector<double>> delta(t_max, std::vector<double>(n));
  std::vector<std::vector<size_t>> psi(t_max, std::vector<size_t>(n, 0));
  std::vector<double> b0 = effective_row(0);
  for (size_t i = 0; i < n; ++i) {
    delta[0][i] = safe_log(model.initial[i]) + safe_log(b0[i]);
  }
  for (size_t t = 1; t < t_max; ++t) {
    std::vector<double> bt = effective_row(t);
    for (size_t j = 0; j < n; ++j) {
      double best = kNegInf;
      size_t best_i = 0;
      for (size_t i = 0; i < n; ++i) {
        double v = delta[t - 1][i] + safe_log(model.transition[i][j]);
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      delta[t][j] = best + safe_log(bt[j]);
      psi[t][j] = best_i;
    }
  }
  hmm::ViterbiResult result;
  size_t best_state = 0;
  double best = kNegInf;
  for (size_t i = 0; i < n; ++i) {
    if (delta[t_max - 1][i] > best) {
      best = delta[t_max - 1][i];
      best_state = i;
    }
  }
  result.log_probability = best;
  result.states.resize(t_max);
  result.states[t_max - 1] = best_state;
  for (size_t t = t_max - 1; t > 0; --t) {
    result.states[t - 1] = psi[t][result.states[t]];
  }
  return result;
}

TEST(ViterbiEquivalenceTest, FlatMatchesNestedReferenceFuzz) {
  common::Rng rng(45);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
    hmm::HmmModel model;
    model.initial.assign(n, 1.0 / static_cast<double>(n));
    model.transition = hmm::MakeDefaultTransition(n, 0.6);
    size_t t_max = static_cast<size_t>(rng.UniformInt(1, 40));
    hmm::EmissionMatrix emissions;
    emissions.Reset(n);
    for (size_t t = 0; t < t_max; ++t) {
      std::span<double> row = emissions.AppendRow();
      // Every ~9th row all-zero: exercises the uniform fallback.
      if (trial % 3 == 0 && t % 9 == 8) continue;
      for (double& e : row) e = rng.Uniform(0.0, 1.0);
    }
    auto flat = hmm::Viterbi(model, emissions);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    hmm::ViterbiResult reference = ReferenceViterbi(model, emissions);
    EXPECT_EQ(flat->states, reference.states) << "trial " << trial;
    EXPECT_EQ(flat->log_probability, reference.log_probability);
  }
}

// --- EmissionMatrix shape/validation edges ---------------------------

TEST(EmissionMatrixTest, FromRowsRejectsRaggedInput) {
  EXPECT_FALSE(hmm::EmissionMatrix::FromRows({{0.5, 0.5}, {0.1}}).ok());
  EXPECT_FALSE(
      hmm::EmissionMatrix::FromRows({{0.1}, {0.5, 0.5}, {0.2}}).ok());
}

TEST(EmissionMatrixTest, FromRowsAcceptsEmptyAndUniform) {
  auto empty = hmm::EmissionMatrix::FromRows({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto two = hmm::EmissionMatrix::FromRows({{0.2, 0.8}, {0.6, 0.4}});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->rows(), 2u);
  EXPECT_EQ(two->cols(), 2u);
  EXPECT_EQ(two->At(1, 0), 0.6);
}

TEST(EmissionMatrixTest, ResetKeepsCapacityAcrossRefills) {
  hmm::EmissionMatrix m;
  m.Reset(4);
  for (int t = 0; t < 100; ++t) {
    for (double& e : m.AppendRow()) e = 0.25;
  }
  const double* data = m.data().data();
  m.Reset(4);
  EXPECT_EQ(m.rows(), 0u);
  for (int t = 0; t < 100; ++t) m.AppendRow();
  // Refilling to the old high-water mark reuses the same storage.
  EXPECT_EQ(m.data().data(), data);
}

TEST(EmissionMatrixTest, ViterbiRejectsShapeAndSignErrors) {
  hmm::HmmModel model;
  model.initial = {0.5, 0.5};
  model.transition = hmm::MakeDefaultTransition(2, 0.7);
  // Width mismatch vs. the model.
  auto wide = hmm::EmissionMatrix::FromRows({{0.2, 0.3, 0.5}});
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(hmm::Viterbi(model, *wide).ok());
  // Negative emission.
  auto negative = hmm::EmissionMatrix::FromRows({{0.5, -0.1}});
  ASSERT_TRUE(negative.ok());
  EXPECT_FALSE(hmm::Viterbi(model, *negative).ok());
}

}  // namespace
}  // namespace semitri
