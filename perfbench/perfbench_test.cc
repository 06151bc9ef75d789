// Tests of the benchmark's own helpers: the percentile rule, metric-name
// validation, and seed determinism of inputs and exact counts.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_metrics.h"
#include "workloads.h"

namespace semitri::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
  auto p50 = Percentile(OneTo(20), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->samples, 20u);

  EXPECT_FALSE(Percentile(OneTo(99), 0.9).has_value());
  auto p90 = Percentile(OneTo(100), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->samples, 100u);
}

TEST(PercentileTest, MinSamplesMatchesTheRule) {
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_TRUE(Percentile(OneTo(MinSamplesFor(q)), q).has_value()) << q;
    EXPECT_FALSE(Percentile(OneTo(MinSamplesFor(q) - 1), q).has_value()) << q;
  }
}

TEST(MetricNameTest, AcceptsOnlyTheAllowedAlphabet) {
  for (const char* good : {"setup_s", "points_per_s", "road.map_match_ms.p50",
                           "shard.feed_us.p50", "a-b", "9lives"}) {
    EXPECT_TRUE(ValidMetricName(good)) << good;
  }
  for (const char* bad : {"", ".hidden", "_x", "-x", "has space", "a/b",
                          "quote\"d", "colon:x", "caf\xc3\xa9"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'm')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'm')));
}

TEST(MetricNameTest, EveryDeclaredMetricIsValid) {
  for (std::string_view name : kEndToEndMetrics) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
  for (std::string_view name : kPerLayerMetrics) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
}

TEST(MetricSetTest, RejectsInvalidDuplicateAndNonFinite) {
  MetricSet set;
  EXPECT_TRUE(set.Set("points_per_s", 1234.5, "1/s"));
  EXPECT_FALSE(set.Set("points_per_s", 1.0, "1/s"));
  EXPECT_FALSE(set.Set("bad name", 1.0, "ms"));
  EXPECT_FALSE(set.Set("nan_ms", std::nan(""), "ms"));
  EXPECT_FALSE(
      set.Set("inf_ms", std::numeric_limits<double>::infinity(), "ms"));
  EXPECT_EQ(set.ToJson(),
            "{\"points_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}");
}

TEST(SeedDeterminismTest, SameSeedSameCorpusOtherSeedOtherCorpus) {
  for (std::string_view workload : kWorkloadNames) {
    auto a = MakeInputs(workload, 7);
    auto b = MakeInputs(workload, 7);
    auto c = MakeInputs(workload, 8);
    ASSERT_NE(a, nullptr);
    EXPECT_GT(a->dataset.TotalRecords(), 0u) << workload;
    EXPECT_EQ(CorpusChecksum(a->dataset), CorpusChecksum(b->dataset))
        << workload;
    EXPECT_NE(CorpusChecksum(a->dataset), CorpusChecksum(c->dataset))
        << workload;
  }
  EXPECT_EQ(MakeInputs("no_such_workload", 7), nullptr);
}

TEST(SeedDeterminismTest, SameSeedSameExactCounts) {
  for (std::string_view workload : kWorkloadNames) {
    RunOptions options;
    options.workload = std::string(workload);
    options.seed = 3;
    options.seconds = 1;
    options.work_dir = ::testing::TempDir() + "perfbench_counts";
    RunReport first = RunWorkload(options);
    RunReport second = RunWorkload(options);
    ASSERT_TRUE(first.correct) << workload;
    ASSERT_TRUE(second.correct) << workload;
    EXPECT_GT(first.counts.points_fed, 0u) << workload;
    EXPECT_GT(first.counts.wal_bytes, 0u) << workload;
    EXPECT_EQ(first.counts, second.counts) << workload;
    EXPECT_EQ(first.corpus_checksum, second.corpus_checksum) << workload;
  }
}

}  // namespace
}  // namespace semitri::perfbench
