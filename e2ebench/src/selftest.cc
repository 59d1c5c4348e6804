// Self-tests of the benchmark's own statistics: the percentile tail rule
// and span self-time / unattributed-remainder arithmetic. Exits non-zero
// on the first failed check; the runner refuses to benchmark if it does.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // Unsorted.
  return v;
}

e2e::Span MakeSpan(uint32_t id, uint32_t parent, int64_t start, int64_t end) {
  e2e::Span span;
  span.name = "s" + std::to_string(id);
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

void TestPercentileRule() {
  using e2e::Percentile;
  // p90 of 1..100 is rank 90 with exactly 10 samples beyond: reported.
  auto p90 = Percentile(Ramp(100), 90);
  Check(p90.has_value() && *p90 == 90.0, "p90 of 100 samples is the 90th value");
  // 99 samples: rank 90, only 9 beyond -> missing, never zero.
  Check(!Percentile(Ramp(99), 90).has_value(), "p90 of 99 samples is missing");
  // p99 needs 1000 samples; 999 leaves 9 beyond.
  Check(Percentile(Ramp(1000), 99).has_value(), "p99 of 1000 samples is reported");
  Check(!Percentile(Ramp(999), 99).has_value(), "p99 of 999 samples is missing");
  // The median needs 10 samples above it.
  auto p50 = Percentile(Ramp(20), 50);
  Check(p50.has_value() && *p50 == 10.0, "median of 20 samples is the 10th value");
  Check(!Percentile(Ramp(19), 50).has_value(), "median of 19 samples is missing");
  Check(!Percentile({}, 50).has_value(), "empty series is missing");
  // Failed operations count as infinitely slow: they move the percentile
  // up, and a percentile that lands on one is missing.
  std::vector<double> with_failures = Ramp(100);  // 100, 99, ..., 1.
  for (size_t i = 95; i < 100; ++i) with_failures[i] = e2e::kFailedSample;
  auto shifted = Percentile(with_failures, 50);
  Check(shifted.has_value() && *shifted > 50.0, "failures shift the median up");
  std::vector<double> mostly_failed(100, e2e::kFailedSample);
  Check(!Percentile(mostly_failed, 50).has_value(), "an infinite percentile is missing");
  Check(e2e::MedianOf({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Check(e2e::MedianOf({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void TestSelfTimes() {
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (clipped to the root); grandchild [12,18] under the first.
  std::vector<e2e::Span> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 30), MakeSpan(3, 2, 12, 18),
      MakeSpan(4, 1, 20, 50),  MakeSpan(5, 1, 90, 120),
  };
  std::vector<int64_t> self = e2e::SelfTimesNs(spans);
  Check(self[0] == 100 - (40 + 10), "root self time subtracts the union of children");
  Check(self[1] == 20 - 6, "child self time subtracts its grandchild");
  Check(self[2] == 6, "leaf self time is its duration");
  Check(self[3] == 30, "overlapping sibling keeps its own duration");
  double unattributed = e2e::UnattributedFraction(spans);
  Check(std::abs(unattributed - 0.5) < 1e-12, "unattributed remainder is root self / root");
  // A second root without children is fully unattributed.
  spans.push_back(MakeSpan(6, 0, 200, 300));
  Check(std::abs(e2e::UnattributedFraction(spans) - 150.0 / 200.0) < 1e-12,
        "unattributed remainder sums over roots");
  auto groups = e2e::SelfTimesByName(spans);
  Check(groups["s1"].size() == 1 && groups["s1"][0] == 50.0, "grouping keeps self times");
}

void TestTracerNesting() {
  e2e::Tracer tracer(1);
  tracer.BeginStatement();
  {
    e2e::ScopedSpan root(&tracer, "stmt");
    { e2e::ScopedSpan child(&tracer, "parse"); }
    { e2e::ScopedSpan child(&tracer, "plan"); }
  }
  const auto& spans = tracer.spans();
  Check(spans.size() == 3, "three spans recorded");
  Check(spans[0].parent == 0 && spans[1].parent == 1 && spans[2].parent == 1,
        "children point at the open span");
  Check(spans[1].statement == spans[0].statement && spans[0].statement != 0,
        "spans of one statement share its id");
  Check(spans[0].end_ns >= spans[2].end_ns, "root closes last");
  { e2e::ScopedSpan none(nullptr, "ignored"); }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTimes();
  TestTracerNesting();
  if (failures != 0) return EXIT_FAILURE;
  std::fprintf(stderr, "selftest: ok\n");
  return EXIT_SUCCESS;
}
