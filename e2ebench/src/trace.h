// In-memory spans for the traced benchmark run. The benchmark opens a span
// around every public call it makes into the library (parse, plan,
// execute, zoom-in, ingest, checkpoint, each reopen sub-step); spans of
// one statement share a statement id, and each span knows the span that
// was open when it began (its parent). Nothing is written until the run
// ends, when the spans are reduced to per-layer self times.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  uint64_t statement = 0;  // Shared by every span of one statement.
  uint32_t id = 0;         // 1-based index into the owning tracer's spans.
  uint32_t parent = 0;     // 0 = root span.
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Steady-clock nanoseconds since an arbitrary origin.
int64_t NowNs();

/// Records the spans of one client thread (not thread-safe: give each
/// thread its own tracer).
class Tracer {
 public:
  explicit Tracer(uint32_t client) : client_(client) {}

  /// Starts a new statement; spans opened until the next call share its id.
  void BeginStatement() { statement_ = (uint64_t{client_} << 40) | ++statements_; }

  /// Opens a span as a child of the innermost open span; returns its id.
  uint32_t Begin(std::string name);
  /// Closes span `id` (must be the innermost open span).
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t client_;
  uint64_t statements_ = 0;
  uint64_t statement_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// Opens a span for the enclosing scope; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its direct children, each
/// clipped to the parent's interval.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Share of root-span time not covered by any child span: the sum of the
/// roots' self times over the sum of their durations (0 without roots).
/// Only roots whose name starts with `root_prefix` count.
double UnattributedFraction(const std::vector<Span>& spans,
                            const std::string& root_prefix = "");

/// Concatenates the spans of several tracers, renumbering ids and parents
/// so they stay unique.
std::vector<Span> MergeSpans(const std::vector<const std::vector<Span>*>& parts);

/// Self times of spans grouped by span name, in nanoseconds.
std::map<std::string, std::vector<double>> SelfTimesByName(const std::vector<Span>& spans);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
