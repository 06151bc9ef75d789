#ifndef SEMITRI_PERFBENCH_BENCH_METRICS_H_
#define SEMITRI_PERFBENCH_BENCH_METRICS_H_

// Measurement helpers of the end-to-end benchmark: the percentile rule,
// metric-name validation, the ordered metric set that becomes the
// result line, and the in-memory span recorder behind the traced run.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace semitri::perfbench {

// A percentile is reported only when at least this many samples lie
// beyond it; with fewer, the tail it claims to describe is noise.
inline constexpr size_t kMinSamplesBeyond = 10;

struct PercentileResult {
  double value = 0.0;
  size_t samples = 0;
};

// Nearest-rank q-quantile (q in (0, 1)) of `samples`, or nullopt when
// fewer than kMinSamplesBeyond samples rank above it.
std::optional<PercentileResult> Percentile(std::vector<double> samples,
                                           double q);

// Smallest sample count for which Percentile(_, q) reports a value.
size_t MinSamplesFor(double q);

// Metric names: 1 to 64 characters from [A-Za-z0-9_.-], starting with a
// letter or a digit.
bool ValidMetricName(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics in insertion order; rejects invalid names, duplicates and
// non-finite values.
class MetricSet {
 public:
  // False (and nothing recorded) for an invalid name, a name already
  // present, or a non-finite value.
  bool Set(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

  // {"name": {"value": v, "unit": "u"}, ...}, values in shortest
  // round-trip form.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

// Spans recorded by the benchmark around its calls into the library.
// Kept in memory and written once, at the end of a traced run.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    uint32_t name = 0;    // interned name (see Intern)
    uint32_t id = 0;      // 1-based; 0 means "no parent"
    uint32_t parent = 0;
    uint32_t pass = 0;    // spans of one pass share this identifier
    int64_t start_ns = 0; // since the tracer was created
    int64_t end_ns = 0;
  };

  Tracer();

  // Interned span name (stable index for the lifetime of the tracer).
  uint32_t Intern(std::string_view name);

  // Starts a span whose end is set later by Close; returns its id, so
  // spans recorded in between can name it as their parent.
  uint32_t Open(uint32_t name, Clock::time_point start, uint32_t parent,
                uint32_t pass);
  void Close(uint32_t id, Clock::time_point end);

  // Records a finished span and returns its id.
  uint32_t Record(uint32_t name, Clock::time_point start,
                  Clock::time_point end, uint32_t parent, uint32_t pass);

  // Durations (milliseconds) of every span with this name.
  std::vector<double> DurationsMs(std::string_view name) const;
  double TotalMs(std::string_view name) const;

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::optional<uint32_t> Lookup(std::string_view name) const;

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

inline double MsBetween(Tracer::Clock::time_point start,
                        Tracer::Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace semitri::perfbench

#endif  // SEMITRI_PERFBENCH_BENCH_METRICS_H_
