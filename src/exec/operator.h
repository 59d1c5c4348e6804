// Batch-at-a-time iterator interface over AnnotatedTuples. Every operator
// produces its output through one virtual, NextBatchImpl, and consumes its
// children through NextBatch — the same contract the morsel-driven
// parallel executor's worker pipelines speak. Every operator implements
// the extended summary-propagation semantics of its relational
// counterpart (Section 2.1).
//
// The public Open/NextBatch entry points are non-virtual wrappers
// (operators override OpenImpl/NextBatchImpl): the wrapper layer polls the
// query context for cancellation at every call, maintains the per-operator
// OperatorMetrics counters surfaced through EXPLAIN ANALYZE and, when
// metrics are enabled, per-call wall-clock time. Next() is a tuple-at-a-time
// adapter for root callers only (tests, benches, examples): it refills from
// NextBatch; no operator calls it on a child. Operators optionally report
// each emitted tuple to a trace sink — the demo's "under-the-hood
// execution" feature (Section 3, demonstration feature 3) — so a traced
// serial plan reports one operator's batch before its parent's.

#ifndef INSIGHTNOTES_EXEC_OPERATOR_H_
#define INSIGHTNOTES_EXEC_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/annotated_tuple.h"
#include "exec/query_context.h"
#include "rel/schema.h"

namespace insightnotes::exec {

/// Callback invoked per emitted tuple: (operator name, tuple).
using TraceSink = std::function<void(const std::string&, const core::AnnotatedTuple&)>;

/// Rows per batch for operators that choose their own batch boundaries
/// (scans, joins, blocking operators replaying materialized output).
inline constexpr size_t kDefaultBatchSize = 256;

/// The output of a blocking operator (sort, aggregation, duplicate
/// elimination, order restoration): materialized at Open, then replayed in
/// kDefaultBatchSize runs by Operator::EmitRows.
struct MaterializedRows {
  std::vector<core::AnnotatedTuple> rows;
  size_t cursor = 0;  // Next row to emit.

  void Clear() {
    rows.clear();
    cursor = 0;
  }
};

/// Execution counters maintained by the Open/NextBatch wrappers and
/// the operators themselves. Counters are always on (plain increments);
/// wall-clock time is only accumulated while metrics are enabled (see
/// Operator::SetMetricsEnabled) to keep the hot path timer-free.
struct OperatorMetrics {
  uint64_t rows_out = 0;          // Tuples emitted through NextBatch.
  uint64_t batches_out = 0;       // Batches emitted through NextBatch.
  uint64_t wall_ns = 0;           // Inclusive time in Open/NextBatch.
  uint64_t morsels = 0;           // Morsel scans: morsels processed.
  uint64_t build_partitions = 0;  // Hash joins: partitions in the build.
  uint64_t partial_groups = 0;    // Partial agg/distinct/sort: local states built.
  uint64_t merge_ns = 0;          // Merge operators: time folding partial states.
  uint64_t rows_pruned = 0;       // LIMIT pushdown: rows provably outside the
                                  // result, dropped before materialization.
  uint64_t bound_updates = 0;     // Top-k sort: shared k-th-candidate tightenings.
  uint64_t cancel_checks = 0;     // Cooperative interrupt polls at this operator.
  uint64_t mem_peak = 0;          // High-water bytes of materialized state.
};

class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (and its children) for iteration. Must be called
  /// before Next/NextBatch; calling it again restarts the iteration.
  Status Open();

  /// Root-caller adapter: produces the next tuple into `out`, refilling
  /// from NextBatch and skipping empty batches. Returns false when
  /// exhausted. Operators never call this on a child.
  Result<bool> Next(core::AnnotatedTuple* out);

  /// Produces the next batch into `out` (cleared first). Returns false when
  /// exhausted. A returned batch may be *empty* (e.g. a fully filtered
  /// morsel): emptiness does not signal exhaustion, only `false` does.
  Result<bool> NextBatch(core::AnnotatedBatch* out);

  /// Releases execution-scoped resources: joins outstanding worker jobs
  /// (gather), returns memory reservations to the budget, closes children.
  /// Idempotent; safe mid-iteration (the cancellation path) and after
  /// exhaustion. The plan can be Open()ed again afterwards.
  Status Close();

  virtual const rel::Schema& OutputSchema() const = 0;
  virtual std::string Name() const = 0;

  /// Direct child operators, probe-side first. Drives trace/metrics
  /// propagation and EXPLAIN's plan rendering.
  virtual std::vector<Operator*> Children() { return {}; }

  /// Best-effort cardinality hint (0 = unknown); consumers use it to
  /// reserve materialization buffers (e.g. the hash-join build vector).
  virtual size_t EstimatedRows() const { return 0; }

  /// Cost-based planner's output-cardinality estimate for this operator.
  /// Stamped by the optimizer when it planned the query; EXPLAIN [ANALYZE]
  /// reads PlannerEstimate(), which falls back to the operator's own
  /// structural hint when the optimizer did not run.
  void SetPlannerEstimate(size_t rows) { planner_est_ = rows; }
  size_t PlannerEstimate() const {
    return planner_est_ != kNoPlannerEstimate ? planner_est_ : EstimatedRows();
  }
  bool HasPlannerEstimate() const { return planner_est_ != kNoPlannerEstimate; }

  /// Installs `sink` on this operator and its children.
  virtual void SetTraceSink(TraceSink sink) {
    for (Operator* child : Children()) child->SetTraceSink(sink);
    trace_ = std::move(sink);
  }

  /// Installs the per-statement lifecycle context (cancellation, deadline,
  /// memory budget) on this subtree. shared_ptr because retained plans
  /// (zoom-in re-execution) outlive the statement that created them.
  /// Operators that own sub-plans outside Children() (shared build states,
  /// worker pipelines) override to forward there too.
  virtual void SetQueryContext(std::shared_ptr<QueryContext> context) {
    for (Operator* child : Children()) child->SetQueryContext(context);
    context_ = std::move(context);
    reservation_.Attach(context_ != nullptr ? &context_->budget() : nullptr,
                        Name());
  }

  QueryContext* query_context() const { return context_.get(); }

  /// The owning shared_ptr, so Engine::Execute can install a snapshot on a
  /// plan's existing context (or detect the plan has none yet).
  std::shared_ptr<QueryContext> shared_query_context() const { return context_; }

  /// Turns wall-clock accounting on/off for this subtree.
  void SetMetricsEnabled(bool enabled) {
    for (Operator* child : Children()) child->SetMetricsEnabled(enabled);
    metrics_enabled_ = enabled;
  }

  /// Zeroes the counters of this subtree (e.g. before a re-execution).
  void ResetMetricsTree() {
    for (Operator* child : Children()) child->ResetMetricsTree();
    metrics_ = OperatorMetrics{};
  }

  const OperatorMetrics& metrics() const { return metrics_; }

 protected:
  virtual Status OpenImpl() = 0;
  /// Fills `out` (empty on entry) with the next batch; false = exhausted.
  virtual Result<bool> NextBatchImpl(core::AnnotatedBatch* out) = 0;
  /// Operator-specific teardown; the Close() wrapper handles children and
  /// the memory reservation.
  virtual Status CloseImpl() { return Status::OK(); }

  /// Polls the query context for cancellation / deadline expiry. The
  /// Open/NextBatch wrappers call this at every boundary.
  Status CheckInterrupt() {
    if (context_ == nullptr) return Status::OK();
    ++metrics_.cancel_checks;
    return context_->CheckInterrupt();
  }

  /// Records `bytes` of materialized state against the statement budget.
  /// kResourceExhausted (naming this operator) once the budget is blown.
  Status ChargeMemory(size_t bytes) {
    Status status = reservation_.Charge(bytes);
    if (reservation_.peak() > metrics_.mem_peak) {
      metrics_.mem_peak = reservation_.peak();
    }
    return status;
  }

  /// Returns every charged byte to the budget (state was dropped/reset).
  void ReleaseMemory() { reservation_.ReleaseAll(); }

  void Trace(const core::AnnotatedTuple& tuple) const {
    if (trace_) trace_(Name(), tuple);
  }

  /// Blocking operators' NextBatchImpl: moves the next kDefaultBatchSize
  /// rows of `rows` into `out`, tracing each. False once all are replayed.
  bool EmitRows(MaterializedRows* rows, core::AnnotatedBatch* out) const;

  TraceSink trace_;
  OperatorMetrics metrics_;
  bool metrics_enabled_ = false;
  std::shared_ptr<QueryContext> context_;
  MemoryReservation reservation_;

 private:
  core::AnnotatedBatch root_batch_;  // Next() adapter's current batch.
  size_t root_pos_ = 0;              // Next tuple of root_batch_.
  static constexpr size_t kNoPlannerEstimate = static_cast<size_t>(-1);
  size_t planner_est_ = kNoPlannerEstimate;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_OPERATOR_H_
