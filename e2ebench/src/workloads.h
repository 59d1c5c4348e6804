// The three benchmark workloads (ingest, explore_hot, archive_cold) and the
// metric report they fill in.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <optional>
#include <string>
#include <vector>

#include "scenario.h"

namespace e2e {

struct Metric {
  std::string name;
  std::optional<double> value;  // nullopt = missing (never reported as zero).
  std::string unit;
};

/// Runs `options.workload`. Untraced runs fill `metrics` with the
/// end-to-end metrics, traced runs with the per-layer metrics. Failed
/// operations and failed output checks land in `recorder`. Returns false
/// for an unknown workload.
bool RunWorkload(const RunOptions& options, Recorder* recorder,
                 std::vector<Metric>* metrics);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
