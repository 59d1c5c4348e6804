#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2e {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
size_t RankOf(double p, size_t n) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty() || p <= 0.0 || p >= 100.0) return std::nullopt;
  size_t n = samples.size();
  size_t rank = RankOf(p, n);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  double value = samples[rank - 1];
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double MedianOf(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace e2e
