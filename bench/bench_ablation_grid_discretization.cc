// Ablation — grid discretization + neighbor pruning of the POI
// observation model (paper §4.3 "discretization and neighboring
// techniques") versus exact evaluation over all POIs.
//
// Measures (a) emission-evaluation throughput for both variants, model
// construction and the first read of a cold cell via google-benchmark
// and (b) decoded-category agreement.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "datagen/world.h"
#include "poi/observation_model.h"

using namespace semitri;

namespace {

datagen::World& TestWorld() {
  static datagen::World* world = [] {
    datagen::WorldConfig config;
    config.seed = 141;
    config.extent_meters = 6000.0;
    config.num_pois = 8000;
    return new datagen::World(datagen::WorldGenerator(config).Generate());
  }();
  return *world;
}

void BM_EmissionsDiscretized(benchmark::State& state) {
  datagen::World& world = TestWorld();
  poi::PoiObservationModel model(&world.pois);
  common::Rng rng(7);
  for (auto _ : state) {
    geo::Point p{rng.Uniform(500, 5500), rng.Uniform(500, 5500)};
    benchmark::DoNotOptimize(model.EmissionsAt(p));
  }
}

void BM_EmissionsExact(benchmark::State& state) {
  datagen::World& world = TestWorld();
  poi::PoiObservationModel model(&world.pois);
  common::Rng rng(7);
  for (auto _ : state) {
    geo::Point p{rng.Uniform(500, 5500), rng.Uniform(500, 5500)};
    benchmark::DoNotOptimize(model.EmissionsExact(p));
  }
}

void BM_ModelConstruction(benchmark::State& state) {
  datagen::World& world = TestWorld();
  for (auto _ : state) {
    poi::PoiObservationModel model(&world.pois);
    benchmark::DoNotOptimize(model.grid().cols());
  }
}

// The cost construction leaves to the reads: a fresh model (untimed),
// then a batch of first reads of distinct cells, each of which fills
// its cell. The time per item is the cost of one cold cell.
void BM_ColdCellEmissions(benchmark::State& state) {
  datagen::World& world = TestWorld();
  const size_t kBatch = 256;
  std::optional<poi::PoiObservationModel> model(std::in_place, &world.pois);
  const auto& grid = model->grid();
  const size_t num_cells = grid.cols() * grid.rows();
  std::vector<size_t> cells(num_cells);
  std::iota(cells.begin(), cells.end(), size_t{0});
  common::Rng rng(13);
  std::shuffle(cells.begin(), cells.end(), rng.engine());
  std::vector<geo::Point> queries;
  for (size_t k = 0; k < kBatch; ++k) {
    queries.push_back(
        grid.CellCenter(cells[k] % grid.cols(), cells[k] / grid.cols()));
  }
  std::vector<double> out(model->num_categories());
  for (auto _ : state) {
    state.PauseTiming();
    model.emplace(&world.pois);  // destroys the previous model, untimed
    state.ResumeTiming();
    for (const geo::Point& p : queries) model->EmissionsAtInto(p, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["cold_cell"] = benchmark::Counter(
      static_cast<double>(kBatch),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

}  // namespace

BENCHMARK(BM_EmissionsDiscretized);
BENCHMARK(BM_EmissionsExact);
BENCHMARK(BM_ModelConstruction)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdCellEmissions)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  benchutil::BenchReporter reporter("ablation_grid_discretization");
  // Agreement report before the timing run.
  datagen::World& world = TestWorld();
  poi::PoiObservationModel model(&world.pois);
  common::Rng rng(11);
  size_t agree = 0;
  const size_t kQueries = 2000;
  for (size_t q = 0; q < kQueries; ++q) {
    geo::Point p{rng.Uniform(500, 5500), rng.Uniform(500, 5500)};
    auto grid = model.EmissionsAt(p);
    auto exact = model.EmissionsExact(p);
    size_t grid_best = static_cast<size_t>(
        std::max_element(grid.begin(), grid.end()) - grid.begin());
    size_t exact_best = static_cast<size_t>(
        std::max_element(exact.begin(), exact.end()) - exact.begin());
    if (grid_best == exact_best) ++agree;
  }
  std::printf("argmax-category agreement (grid vs exact): %.2f%% over %zu "
              "queries, %zu POIs\n\n",
              100.0 * static_cast<double>(agree) /
                  static_cast<double>(kQueries),
              kQueries, world.pois.size());

  reporter.Metric("argmax_agreement",
                  static_cast<double>(agree) /
                      static_cast<double>(kQueries));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return reporter.Write() ? 0 : 1;
}
