// Ablation — R*-tree candidate retrieval versus linear scan, the
// efficiency claim behind Algorithm 1 (O(n log m)) and Algorithm 2
// ("candidate segments ... efficiently accessed with R*-tree index").
//
// google-benchmark microbenchmark: candidate-segment queries,
// nearest-segment queries (indexed and linear) against networks of
// growing size, and R*-tree construction by repeated insertion versus
// STR bulk loading.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "index/rstar_tree.h"
#include "road/road_network.h"

using namespace semitri;

namespace {

using Tree = index::RStarTree<int>;

// Builds a synthetic grid-ish network with `approx_segments` segments.
road::RoadNetwork MakeNetwork(size_t approx_segments) {
  common::Rng rng(42);
  road::RoadNetwork net;
  size_t nodes_per_side = static_cast<size_t>(
      std::sqrt(static_cast<double>(approx_segments) / 2.0)) + 1;
  double extent = 10000.0;
  double spacing = extent / static_cast<double>(nodes_per_side);
  std::vector<std::vector<road::NodeId>> grid(
      nodes_per_side, std::vector<road::NodeId>(nodes_per_side));
  for (size_t y = 0; y < nodes_per_side; ++y) {
    for (size_t x = 0; x < nodes_per_side; ++x) {
      grid[y][x] = net.AddNode({x * spacing + rng.Gaussian(0, spacing / 10),
                                y * spacing + rng.Gaussian(0, spacing / 10)});
    }
  }
  for (size_t y = 0; y < nodes_per_side; ++y) {
    for (size_t x = 0; x + 1 < nodes_per_side; ++x) {
      net.AddSegment(grid[y][x], grid[y][x + 1],
                     road::RoadType::kResidential);
      net.AddSegment(grid[x][y], grid[x + 1][y],
                     road::RoadType::kResidential);
    }
  }
  return net;
}

void BM_CandidateSegments(benchmark::State& state) {
  road::RoadNetwork net = MakeNetwork(static_cast<size_t>(state.range(0)));
  common::Rng rng(7);
  for (auto _ : state) {
    geo::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(net.CandidateSegments(p, 60.0));
  }
  state.SetLabel(std::to_string(net.num_segments()) + " segments");
}

void BM_NearestSegment(benchmark::State& state) {
  road::RoadNetwork net = MakeNetwork(static_cast<size_t>(state.range(0)));
  common::Rng rng(7);
  for (auto _ : state) {
    geo::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(net.NearestSegment(p));
  }
  state.SetLabel(std::to_string(net.num_segments()) + " segments");
}

void BM_NearestSegmentLinear(benchmark::State& state) {
  road::RoadNetwork net = MakeNetwork(static_cast<size_t>(state.range(0)));
  common::Rng rng(7);
  for (auto _ : state) {
    geo::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(net.NearestSegmentLinear(p));
  }
}

// `n` random point entries over a 10 km square.
std::vector<Tree::Entry> RandomPointEntries(size_t n) {
  common::Rng rng(42);
  std::vector<Tree::Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    geo::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    entries.push_back({geo::BoundingBox::FromPoint(p), static_cast<int>(i)});
  }
  return entries;
}

// Construction cost: repeated insertion vs STR bulk loading.
void BM_IndexBuildIncremental(benchmark::State& state) {
  std::vector<Tree::Entry> entries =
      RandomPointEntries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Tree tree;
    for (const Tree::Entry& e : entries) tree.Insert(e.box, e.value);
    benchmark::DoNotOptimize(tree.size());
  }
}

void BM_IndexBuildBulkLoad(benchmark::State& state) {
  std::vector<Tree::Entry> entries =
      RandomPointEntries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Tree tree = Tree::BulkLoad(entries);
    benchmark::DoNotOptimize(tree.size());
  }
}

}  // namespace

BENCHMARK(BM_CandidateSegments)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_NearestSegment)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_NearestSegmentLinear)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_IndexBuildIncremental)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexBuildBulkLoad)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  semitri::benchutil::BenchReporter reporter("ablation_index");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.Write() ? 0 : 1;
}
