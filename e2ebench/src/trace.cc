#include "trace.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.statement = statement_;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // Children intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0 || span.parent > spans.size()) continue;
    const Span& parent = spans[span.parent - 1];
    int64_t lo = std::max(span.start_ns, parent.start_ns);
    int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) children[span.parent - 1].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

double UnattributedFraction(const std::vector<Span>& spans,
                            const std::string& root_prefix) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  int64_t root_total = 0;
  int64_t root_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 || spans[i].name.rfind(root_prefix, 0) != 0) continue;
    root_total += spans[i].duration_ns();
    root_self += self[i];
  }
  return root_total > 0 ? static_cast<double>(root_self) / static_cast<double>(root_total)
                        : 0.0;
}

std::vector<Span> MergeSpans(const std::vector<const std::vector<Span>*>& parts) {
  std::vector<Span> merged;
  for (const std::vector<Span>* part : parts) {
    auto offset = static_cast<uint32_t>(merged.size());
    for (Span span : *part) {
      span.id += offset;
      if (span.parent != 0) span.parent += offset;
      merged.push_back(std::move(span));
    }
  }
  return merged;
}

std::map<std::string, std::vector<double>> SelfTimesByName(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<double>> groups;
  for (size_t i = 0; i < spans.size(); ++i) {
    groups[spans[i].name].push_back(static_cast<double>(self[i]));
  }
  return groups;
}

}  // namespace e2e
