// End-to-end InsightNotes benchmark program.
//
//   e2e_bench --workload <ingest|explore_hot|archive_cold> --seed <n>
//              --seconds <s> --trace <0|1> --dir <scratch dir> [--commit <sha>]
//
// Replays the paper's Section-3 ornithology scenario through the public
// API, checks the outputs, prints every metric as "name = value unit" and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "scenario.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::RunOptions* options, std::string* commit) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--dir") {
      options->dir = value;
    } else if (key == "--commit") {
      *commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && !options->dir.empty() &&
         options->seconds > 0;
}

/// JSON string literal for `text` (metric names and units are plain ASCII).
std::string Quote(const std::string& text) { return "\"" + text + "\""; }

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  std::string commit = "unknown";
  if (!ParseArgs(argc, argv, &options, &commit)) {
    std::fprintf(stderr,
                 "usage: %s --workload <ingest|explore_hot|archive_cold> --seed <n> "
                 "--seconds <s> --trace <0|1> --dir <scratch dir> [--commit <sha>]\n",
                 argv[0]);
    return 2;
  }
#ifndef NDEBUG
  constexpr bool kOptimized = false;
#else
  constexpr bool kOptimized = true;
#endif
  if (!kOptimized || std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to report: library built as '%s', not Release\n",
                 E2E_BUILD_TYPE);
    return 3;
  }
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d nproc=%u\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  std::printf("# compiler=\"%s\" build_type=%s commit=%s\n", E2E_COMPILER, E2E_BUILD_TYPE,
              commit.c_str());

  e2e::Recorder recorder;
  std::vector<e2e::Metric> metrics;
  if (!e2e::RunWorkload(options, &recorder, &metrics)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  for (const std::string& error : recorder.errors()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }

  bool complete = !metrics.empty();
  std::string json_metrics;
  for (const e2e::Metric& metric : metrics) {
    if (!metric.value.has_value() || !std::isfinite(*metric.value)) {
      std::printf("%-32s = missing %s\n", metric.name.c_str(), metric.unit.c_str());
      complete = false;
      continue;
    }
    std::printf("%-32s = %.6g %s\n", metric.name.c_str(), *metric.value,
                metric.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", *metric.value);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += Quote(metric.name) + ": {\"value\": " + value +
                    ", \"unit\": " + Quote(metric.unit) + "}";
  }
  uint64_t attempted = recorder.attempted();
  std::printf("# failed_frac=%.6g (%llu of %llu operations)\n",
              attempted > 0 ? static_cast<double>(recorder.failed()) / attempted : 0.0,
              static_cast<unsigned long long>(recorder.failed()),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              recorder.correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(recorder.failed()), json_metrics.c_str());
  std::fflush(stdout);
  // A wrong output or a metric that could not be measured fails the run.
  return recorder.correct() && complete ? 0 : 1;
}
