#ifndef SEMITRI_BENCH_BENCH_UTIL_H_
#define SEMITRI_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the figure/table reproduction benches. Every
// bench prints the paper's rows/series next to the measured values;
// absolute sizes are scaled down (synthetic corpora regenerate per run)
// but distribution shapes are the reproduction target (see
// EXPERIMENTS.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "datagen/world.h"

namespace semitri::benchutil {

// Minimal flat-object JSON emitter for machine-readable bench output
// (CI archives these files next to the human-readable stdout tables).
// Keys are emitted in insertion order; values are numbers or strings.
class JsonWriter {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.emplace_back(key, buf);
  }
  void Add(const std::string& key, size_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    entries_.emplace_back(key, quoted);
  }

  // Writes `{"k": v, ...}`; returns false on I/O failure.
  bool WriteToFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s\n  \"%s\": %s", i == 0 ? "" : ",",
                   entries_[i].first.c_str(), entries_[i].second.c_str());
    }
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// The revision a run record was measured at: $SEMITRI_GIT_REV when set,
// else the HEAD of the source checkout the bench was built from, with
// "-dirty" when its tree differs from HEAD (untracked files included);
// "unknown" only outside a git checkout.
inline std::string GitRevision() {
  if (const char* rev = std::getenv("SEMITRI_GIT_REV")) return rev;
#ifdef SEMITRI_SOURCE_DIR
  auto git = [](const char* args, std::string* out) {
    std::string command = std::string("git -C \"") + SEMITRI_SOURCE_DIR +
                          "\" " + args + " 2>/dev/null";
    std::FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) return false;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out->append(buf);
    return pclose(pipe) == 0;
  };
  std::string head;
  std::string changes;
  if (git("rev-parse --verify HEAD", &head) &&
      git("status --porcelain", &changes)) {
    head.erase(head.find_last_not_of(" \n\r\t") + 1);
    if (!head.empty()) return changes.empty() ? head : head + "-dirty";
  }
#endif
  return "unknown";
}

// --- machine-readable run records (BENCH_<name>.json) -----------------
// Every bench finishes by calling BenchReporter::Write(), which lands a
// flat-JSON run record at $SEMITRI_BENCH_DIR/BENCH_<name>.json (default:
// the working directory — CI runs benches from the repo root, so the
// committed baselines live there too). tools/bench_compare diffs two
// such sets; CI's perf-gate job fails on >5% regression of any gated
// metric. Schema (schema_version 1, all keys flat):
//   schema_version, bench, git_rev, wall_ns      always present
//   <section>_{iters,wall_ns,p50_ns,p99_ns}      one per TimeSection()
//   free-form numeric keys                       Metric()
//   gated_ratios / gated_zeros                   comma-joined key lists
//                                                naming the gated metrics
// Gated ratios are machine-relative (batched kernel vs. an in-process
// scalar reference), so a baseline recorded on one machine remains
// comparable on another; gated zeros are counters that must stay
// exactly zero (the steady-state-allocation contract).
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {
    json_.Add("schema_version", static_cast<size_t>(1));
    json_.Add("bench", name_);
    json_.Add("git_rev", GitRevision());
    // wall_ns starts after the revision lookup's git calls.
    start_ = std::chrono::steady_clock::now();
  }

  // Runs `fn` `iters` times, recording the section's total wall time
  // and per-iteration p50/p99 under <section>_* keys. Returns the p50
  // per-iteration nanoseconds (the median is robust to scheduler
  // outliers, which a run total is not).
  template <typename Fn>
  double TimeSection(const std::string& section, int iters, Fn&& fn) {
    std::vector<double> ns(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      fn();
      ns[static_cast<size_t>(i)] =
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
    return RecordSection(section, &ns);
  }

  // The gated-speedup harness: interleaves batched/reference
  // iterations and gates the MEDIAN of the per-pair time ratios.
  // Adjacent measurements share the machine's momentary state (clock
  // frequency, cache pressure, co-tenant load), so the pairwise ratio
  // is far more reproducible run to run than a ratio of two
  // independently-timed sections — which is what lets the perf-gate
  // hold a 5% threshold against a committed baseline. Records both
  // sections' <section>_* keys, gates `key`, and returns the median
  // ratio (reference time / batched time, higher is better).
  template <typename FnBatched, typename FnReference>
  double GatePairedSpeedup(const std::string& key,
                           const std::string& batched_section,
                           const std::string& reference_section, int iters,
                           FnBatched&& batched, FnReference&& reference) {
    std::vector<double> batched_ns(static_cast<size_t>(iters));
    std::vector<double> reference_ns(static_cast<size_t>(iters));
    std::vector<double> ratio(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      batched();
      auto t1 = std::chrono::steady_clock::now();
      reference();
      auto t2 = std::chrono::steady_clock::now();
      batched_ns[static_cast<size_t>(i)] =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      reference_ns[static_cast<size_t>(i)] =
          std::chrono::duration<double, std::nano>(t2 - t1).count();
      ratio[static_cast<size_t>(i)] =
          reference_ns[static_cast<size_t>(i)] /
          batched_ns[static_cast<size_t>(i)];
    }
    RecordSection(batched_section, &batched_ns);
    RecordSection(reference_section, &reference_ns);
    size_t mid = ratio.size() / 2;
    std::nth_element(ratio.begin(), ratio.begin() + static_cast<long>(mid),
                     ratio.end());
    GateRatio(key, ratio[mid]);
    return ratio[mid];
  }

  // Informational metric: recorded, but not gated by bench_compare.
  void Metric(const std::string& key, double value) { json_.Add(key, value); }
  void Metric(const std::string& key, size_t value) { json_.Add(key, value); }

  // Machine-relative higher-is-better ratio, gated by bench_compare at
  // the 5% threshold against the committed baseline.
  void GateRatio(const std::string& key, double value) {
    json_.Add(key, value);
    Append(&gated_ratios_, key);
  }

  // Counter that must be exactly zero in every run (e.g. steady-state
  // scratch allocations); bench_compare fails the moment it leaves 0.
  void GateZero(const std::string& key, size_t value) {
    json_.Add(key, value);
    Append(&gated_zeros_, key);
  }

  // Writes BENCH_<name>.json; false (with a message) on I/O failure.
  bool Write() {
    if (!gated_ratios_.empty()) json_.Add("gated_ratios", gated_ratios_);
    if (!gated_zeros_.empty()) json_.Add("gated_zeros", gated_zeros_);
    double wall = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    json_.Add("wall_ns", wall);
    const char* dir = std::getenv("SEMITRI_BENCH_DIR");
    std::string path = std::string(dir != nullptr && dir[0] != '\0' ? dir : ".") +
                       "/BENCH_" + name_ + ".json";
    if (!json_.WriteToFile(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("bench json: %s\n", path.c_str());
    return true;
  }

 private:
  // Emits <section>_{iters,wall_ns,p50_ns,p99_ns}; reorders *samples.
  // Returns the p50 per-iteration nanoseconds.
  double RecordSection(const std::string& section,
                       std::vector<double>* samples) {
    std::vector<double>& ns = *samples;
    double total = 0.0;
    for (double d : ns) total += d;
    auto pct = [&](double p) {
      size_t idx =
          static_cast<size_t>(p * static_cast<double>(ns.size() - 1));
      std::nth_element(ns.begin(), ns.begin() + static_cast<long>(idx),
                       ns.end());
      return ns[idx];
    };
    double p99 = pct(0.99);
    double p50 = pct(0.50);
    json_.Add(section + "_iters", ns.size());
    json_.Add(section + "_wall_ns", total);
    json_.Add(section + "_p50_ns", p50);
    json_.Add(section + "_p99_ns", p99);
    return p50;
  }

  static void Append(std::string* list, const std::string& key) {
    if (!list->empty()) *list += ',';
    *list += key;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  JsonWriter json_;
  std::string gated_ratios_;
  std::string gated_zeros_;
};

// The standard synthetic city used by the benches.
inline datagen::World MakeCity(uint64_t seed, double extent_meters = 6000.0,
                               int num_pois = 3000) {
  datagen::WorldConfig config;
  config.seed = seed;
  config.extent_meters = extent_meters;
  config.num_pois = num_pois;
  return datagen::WorldGenerator(config).Generate();
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace semitri::benchutil

#endif  // SEMITRI_BENCH_BENCH_UTIL_H_
