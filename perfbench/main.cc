// End-to-end benchmark driver: GPS fixes in, durable annotated rows out.
//
//   perfbench --workload <offline_people|live_taxi|cluster_cars>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>]
//
// Prints a human-readable table, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 0 only
// when every correctness check passed. perfbench/run.py builds this
// binary and runs it; see README.md in this directory.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_metrics.h"
#include "workloads.h"

namespace {

using semitri::perfbench::FormatNumber;
using semitri::perfbench::Metric;
using semitri::perfbench::RunOptions;
using semitri::perfbench::RunReport;

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <offline_people|live_taxi|"
               "cluster_cars> --seed <n> --seconds <1..60> --trace <0|1> "
               "[--work-dir <dir>] [--trace-out <file>]\n",
               message);
  return 2;
}

bool ParseUnsigned(const std::string& text, unsigned long long* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = ".bench_build/work";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      if (!semitri::perfbench::IsWorkload(value)) {
        return Usage(("unknown workload: " + value).c_str());
      }
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) return Usage("bad --seed");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 60) {
        return Usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag: " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) {
    return Usage("--workload and --seed are required");
  }

  RunReport report = semitri::perfbench::RunWorkload(options);

  const auto& metrics =
      options.trace ? report.per_layer.metrics() : report.end_to_end.metrics();
  std::printf("workload %s  seed %llu  %s run  %zu passes  corpus %016llx\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced", report.passes,
              static_cast<unsigned long long>(report.corpus_checksum));
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      report.correct ? "true" : "false", report.attempted, report.failed,
      (options.trace ? report.per_layer : report.end_to_end).ToJson().c_str());
  return report.correct ? 0 : 1;
}
