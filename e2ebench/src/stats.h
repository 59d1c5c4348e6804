// Sample statistics of the end-to-end benchmark. Percentiles follow one
// rule: a percentile is reported only when at least kMinTailSamples samples
// lie strictly beyond its rank; otherwise it is missing (std::nullopt),
// never zero. A failed operation enters its latency series as +infinity
// (it missed every latency limit), so it can push a percentile to missing
// but never make it look fast.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace e2e {

inline constexpr size_t kMinTailSamples = 10;
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`: the value at
/// 1-based rank ceil(p/100 * n) of the sorted samples. Missing when fewer
/// than kMinTailSamples samples sit above that rank, or when the value is
/// a failed (infinite) sample.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Arithmetic mean; 0 for an empty series.
double Mean(const std::vector<double>& samples);

/// Plain median (no tail rule) for small repeated measurements such as the
/// per-run set-up repetitions; 0 for an empty series.
double MedianOf(std::vector<double> samples);

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
