// Tests for common utilities: Status/Result, string helpers, RNG
// determinism.

#include <gtest/gtest.h>

#include <random>

#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace semitri::common {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("trajectory 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "trajectory 7");
  EXPECT_EQ(s.ToString(), "NotFound: trajectory 7");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SEMITRI_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b", "c"}, "; "), "a; b; c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, CsvEscapeRoundTrip) {
  std::vector<std::string> fields = {"plain", "with,comma", "with\"quote",
                                     "multi\nline", ""};
  std::vector<std::string> escaped;
  for (const auto& f : fields) escaped.push_back(CsvEscape(f));
  std::string line = Join(escaped, ",");
  EXPECT_EQ(CsvParseLine(line), fields);
}

TEST(StringsTest, CsvParsePlainLine) {
  EXPECT_EQ(CsvParseLine("1,2,3"),
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(CsvParseLine("a,,b"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 10000.0, 0.9, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

// Gaussian scales one N(0,1) draw: for stddev > 0 it matches the
// distribution built with (mean, stddev) bit for bit, and at stddev 0
// it returns the mean while still consuming the same engine state.
TEST(RngTest, GaussianScalesAStandardDraw) {
  const double kMeans[] = {0.0, 5.0, -120.5};
  const double kStddevs[] = {0.25, 2.0, 30.0};
  for (double mean : kMeans) {
    for (double stddev : kStddevs) {
      Rng rng(17);
      std::mt19937_64 twin(17);
      for (int i = 0; i < 1000; ++i) {
        double expected =
            std::normal_distribution<double>(mean, stddev)(twin);
        ASSERT_EQ(rng.Gaussian(mean, stddev), expected)
            << "mean " << mean << " stddev " << stddev << " draw " << i;
      }
    }
  }

  Rng noiseless(21);
  Rng noisy(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(noiseless.Gaussian(3.5, 0.0), 3.5);
    (void)noisy.Gaussian(3.5, 1.0);
  }
  EXPECT_EQ(noiseless.UniformInt(0, 1000000), noisy.UniformInt(0, 1000000))
      << "a stddev-0 draw must advance the engine like any other";
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(99);
  Rng b = a.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace semitri::common
