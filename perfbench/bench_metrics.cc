#include "bench_metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace semitri::perfbench {

namespace {

size_t NearestRank(double q, size_t n) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

std::optional<PercentileResult> Percentile(std::vector<double> samples,
                                           double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const size_t rank = NearestRank(q, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return PercentileResult{samples[rank - 1], n};
}

size_t MinSamplesFor(double q) {
  size_t n = kMinSamplesBeyond + 1;
  while (n - NearestRank(q, n) < kMinSamplesBeyond) ++n;
  return n;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name) || !std::isfinite(value) ||
      Find(name) != nullptr) {
    return false;
  }
  metrics_.push_back({name, value, unit});
  return true;
}

const Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::optional<uint32_t> Tracer::Lookup(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  return std::nullopt;
}

uint32_t Tracer::Intern(std::string_view name) {
  if (auto found = Lookup(name)) return *found;
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Open(uint32_t name, Clock::time_point start,
                      uint32_t parent, uint32_t pass) {
  Span span;
  span.name = name;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.pass = pass;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return span.id;
}

void Tracer::Close(uint32_t id, Clock::time_point end) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
}

uint32_t Tracer::Record(uint32_t name, Clock::time_point start,
                        Clock::time_point end, uint32_t parent,
                        uint32_t pass) {
  uint32_t id = Open(name, start, parent, pass);
  Close(id, end);
  return id;
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  auto id = Lookup(name);
  if (!id) return out;
  for (const Span& s : spans_) {
    if (s.name == *id) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::TotalMs(std::string_view name) const {
  double total = 0.0;
  for (double ms : DurationsMs(name)) total += ms;
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %u, \"parent\": %u}}",
                 i == 0 ? "" : ",\n", names_[s.name].c_str(), s.pass,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace semitri::perfbench
