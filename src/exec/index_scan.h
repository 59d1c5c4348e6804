// Index-backed table access: probes a table's secondary index (in-memory
// OrderedIndex or persistent B+-tree, see rel::TableIndex) for an equality
// key or an inclusive [lo, hi] range and emits the matching rows — with
// the same summary objects and attachment metadata a SeqScan would attach
// — in ascending RowId order. Because RowIds are assigned in insertion
// order and a SeqScan emits live rows ascending, the index scan's output
// is exactly the SeqScan's output restricted to the matching rows: stack
// the ORIGINAL filter predicates on top (the planner always keeps them as
// residuals) and the plan is byte-identical to the full-scan plan while
// touching only the probed subset. Strict bounds and NULL/type-coercion
// edge cases are therefore safe by construction — the probe may
// over-approximate, the residual filter decides.

#ifndef INSIGHTNOTES_EXEC_INDEX_SCAN_H_
#define INSIGHTNOTES_EXEC_INDEX_SCAN_H_

#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "core/summary_manager.h"
#include "exec/operator.h"
#include "rel/table.h"

namespace insightnotes::exec {

/// What to probe: an equality key, or an inclusive range with either bound
/// optional. Strict predicate bounds are widened to inclusive ones — the
/// residual filter above discards the boundary rows.
struct IndexProbeSpec {
  size_t column = 0;        // Base-table column position of the index.
  std::string column_name;  // Display only; ToString falls back to colN.
  bool has_eq = false;
  rel::Value eq;
  bool has_lo = false;      // Ignored when has_eq.
  rel::Value lo;
  bool has_hi = false;
  rel::Value hi;

  std::string ToString() const;
};

class IndexScanOperator final : public Operator {
 public:
  /// `table` must have an index on `probe.column` (Table::CreateIndex) by
  /// the time Open runs; the probe happens at Open so retained plans
  /// (zoom-in re-execution) see the table's current contents.
  IndexScanOperator(const rel::Table* table, std::string alias,
                    core::SummaryManager* manager, const ann::AnnotationStore* store,
                    IndexProbeSpec probe, bool with_summaries = true);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override {
    return "IndexScan(" + alias_ + "." + probe_.ToString() + ")";
  }
  size_t EstimatedRows() const override {
    return static_cast<size_t>(table_->NumRows());
  }

  /// See SeqScanOperator::EnableRankStamping. An index scan's emission
  /// positions are a monotone relabeling of the SeqScan positions of the
  /// same rows, so rank comparisons are preserved.
  void EnableRankStamping() { stamp_ranks_ = true; }

 protected:
  Status OpenImpl() override;
  /// Consumes up to kDefaultBatchSize probed rows per call, skipping rows
  /// deleted since the probe (the batch may come out empty).
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  const rel::Table* table_;
  std::string alias_;
  core::SummaryManager* manager_;
  const ann::AnnotationStore* store_;
  IndexProbeSpec probe_;
  bool with_summaries_;
  bool stamp_ranks_ = false;
  rel::Schema schema_;

  // Pinned engine epoch captured at Open; null = live reads. See
  // SeqScanOperator::snapshot_.
  std::shared_ptr<const core::EngineSnapshot> snapshot_;

  std::vector<rel::RowId> rows_;  // Probe result, ascending RowId.
  size_t cursor_ = 0;
};

/// Runs `probe` against `table`'s index on probe.column, appending matching
/// live rows to `out` in ascending RowId order. Shared by IndexScanOperator
/// and the parallel executor's morsel source. InvalidArgument if the table
/// has no index on that column.
Status ProbeIndex(const rel::Table& table, const IndexProbeSpec& probe,
                  std::vector<rel::RowId>* out);

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_INDEX_SCAN_H_
