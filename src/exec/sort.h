// Order-by: materializes and sorts; summaries ride along unchanged. Sort
// keys may be arbitrary expressions, each ascending or descending. The sort
// is stable, so equal keys preserve child order (deterministic results).
//
// Parallel shape: per-worker PartialSortOperators evaluate the full key
// list (expressions and SUMMARY_COUNT specs) per tuple, sort their local
// run, and publish it to a shared PartialSortState; SortMergeOperator
// k-way-merges the runs above the gather. The run comparator breaks key
// ties by (morsel, position-in-morsel) — the tuple's rank in the serial
// input stream — so the merged order is exactly what the serial cascade of
// stable sorts produces.

#ifndef INSIGHTNOTES_EXEC_SORT_H_
#define INSIGHTNOTES_EXEC_SORT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/operator.h"
#include "exec/parallel.h"
#include "exec/summary_filter.h"
#include "rel/expression.h"
#include "rel/index.h"

namespace insightnotes::exec {

struct SortKey {
  rel::ExprPtr expr;
  bool ascending = true;
};

class SortOperator final : public Operator {
 public:
  SortOperator(std::unique_ptr<Operator> child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "Sort"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    return EmitRows(&results_, out);
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<SortKey> keys_;
  MaterializedRows results_;
};

/// One ORDER BY key of the parallel sort, in significance order (first =
/// most significant). Either a bound expression or a SUMMARY_COUNT spec.
struct ParallelSortKey {
  rel::ExprPtr expr;                       // Null when `spec` is set.
  std::unique_ptr<SummaryCountSpec> spec;  // SUMMARY_COUNT(...) key.
  bool ascending = true;
};

/// One tuple of a per-worker sorted run: the precomputed key values plus
/// the tuple's serial rank (morsel, position within the morsel).
struct SortRunEntry {
  std::vector<rel::Value> keys;  // Significance order.
  uint64_t morsel = 0;
  uint32_t pos = 0;
  core::AnnotatedTuple tuple;
};

/// Strict weak order over run entries: lexicographic over the keys with
/// per-key direction, then the serial rank. Because the rank is unique,
/// this is a total order — the merged sequence is independent of how
/// tuples were partitioned into runs, and equals the serial stable-sort
/// output.
class SortRunLess {
 public:
  explicit SortRunLess(const std::vector<bool>* ascending)
      : ascending_(ascending) {}

  bool operator()(const SortRunEntry& a, const SortRunEntry& b) const {
    rel::ValueLess less;
    for (size_t k = 0; k < ascending_->size(); ++k) {
      if (less(a.keys[k], b.keys[k])) return (*ascending_)[k];
      if (less(b.keys[k], a.keys[k])) return !(*ascending_)[k];
    }
    if (a.morsel != b.morsel) return a.morsel < b.morsel;
    return a.pos < b.pos;
  }

 private:
  const std::vector<bool>* ascending_;
};

/// Shared sink of the parallel sort shape: one sorted run per worker.
class PartialSortState final : public SharedPlanState {
 public:
  Status Reset() override;
  void Publish(std::vector<SortRunEntry>&& run);
  std::vector<std::vector<SortRunEntry>> Take();

 private:
  std::mutex mutex_;
  std::vector<std::vector<SortRunEntry>> runs_;
};

/// Shared k-th-candidate bound of an `ORDER BY ... LIMIT k` parallel sort.
///
/// A worker whose local top-k heap is full publishes its heap root (its
/// local k-th candidate, keys + serial rank, no tuple): the worker already
/// holds k entries that sort at or before the root, so no entry sorting
/// strictly after any published root can be part of the global top k.
/// The bound keeps the minimum over everything published — it only ever
/// tightens — and other workers consult it to skip rows without storing
/// them. Because SortRunLess is a *total* order (the serial rank breaks
/// key ties), pruning on "strictly after the bound" can never discard an
/// entry the serial `Sort + Limit` cascade would have emitted: the pruned
/// and the kept side of the bound are disjoint by trichotomy.
class TopKBound final : public SharedPlanState {
 public:
  TopKBound(size_t limit, std::vector<bool> ascending)
      : limit_(limit), ascending_(std::move(ascending)) {}

  Status Reset() override;
  size_t limit() const { return limit_; }

  /// Publishes `candidate` as a worker's current k-th entry; keeps it only
  /// if it is strictly tighter (sorts before the held bound). The
  /// candidate's tuple payload is not copied. Returns true on tightening.
  bool Tighten(const SortRunEntry& candidate);

  /// Refreshes a worker's cached copy of the bound. `version` is the
  /// caller's last-seen bound version (0 initially); on change the bound's
  /// keys and rank are copied into `out` and true is returned.
  bool Refresh(uint64_t* version, SortRunEntry* out) const;

 private:
  const size_t limit_;
  const std::vector<bool> ascending_;
  mutable std::mutex mutex_;
  // Readers poll version_ (one relaxed-ish atomic load per row) and only
  // take the mutex when it moved. 0 = no bound published yet.
  std::atomic<uint64_t> version_{0};
  SortRunEntry bound_;  // Guarded by mutex_; keys + rank only.
};

/// Per-worker sort: drains its pipeline, evaluates the key list per tuple,
/// sorts the local run, and publishes it; emits no batches itself.
///
/// With a TopKBound (`ORDER BY ... LIMIT k` pushdown) the worker keeps a
/// size-k max-heap instead of the full run: rows sorting after the heap
/// root (once full) or after the shared bound are dropped — counted in
/// `rows_pruned` — and the heap root is published to the bound so other
/// workers prune too.
class PartialSortOperator final : public Operator {
 public:
  PartialSortOperator(std::unique_ptr<Operator> child,
                      std::vector<ParallelSortKey> keys,
                      std::shared_ptr<PartialSortState> sink,
                      std::shared_ptr<TopKBound> bound = nullptr);

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override {
    ReleaseMemory();  // Previous execution's run charges.
    return child_->Open();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  Status BuildEntry(const core::AnnotatedBatch& batch, size_t i,
                    SortRunEntry* entry);
  Status DrainUnbounded(std::vector<SortRunEntry>* run);
  Status DrainTopK(std::vector<SortRunEntry>* run);

  std::unique_ptr<Operator> child_;
  std::vector<ParallelSortKey> keys_;
  std::vector<bool> ascending_;  // Direction per key, for the comparator.
  std::shared_ptr<PartialSortState> sink_;
  std::shared_ptr<TopKBound> bound_;  // Null when no LIMIT was pushed down.
};

/// Final k-way merge of the per-worker sorted runs above the gather. With
/// a pushed-down LIMIT the merge stops after emitting `limit` rows.
class SortMergeOperator final : public Operator {
 public:
  /// `label` names the key list for EXPLAIN (built by the planner);
  /// `ascending` gives the per-key directions in significance order.
  /// `limit` of SIZE_MAX means "merge everything".
  SortMergeOperator(std::unique_ptr<Operator> child, std::vector<bool> ascending,
                    std::string label, std::shared_ptr<PartialSortState> source,
                    size_t limit = SIZE_MAX);

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "SortMerge(" + label_ + ")"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override {
    return std::min(limit_, child_->EstimatedRows());
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    return EmitRows(&results_, out);
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<bool> ascending_;
  std::string label_;
  std::shared_ptr<PartialSortState> source_;
  size_t limit_;

  MaterializedRows results_;
};

/// LIMIT n: passes the first n rows through, trimming the batch that
/// crosses the limit, and stops without pulling its child again.
class LimitOperator final : public Operator {
 public:
  LimitOperator(std::unique_ptr<Operator> child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "Limit(" + std::to_string(limit_) + ")"; }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override {
    return std::min(limit_, child_->EstimatedRows());
  }

 protected:
  Status OpenImpl() override {
    produced_ = 0;
    return child_->Open();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  size_t limit_;
  size_t produced_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_SORT_H_
