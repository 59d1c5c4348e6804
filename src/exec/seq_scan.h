// Sequential scan over a base table, attaching each row's summary objects
// (cloned from the maintained state) and attachment metadata. The entry
// point of every InsightNotes pipeline.

#ifndef INSIGHTNOTES_EXEC_SEQ_SCAN_H_
#define INSIGHTNOTES_EXEC_SEQ_SCAN_H_

#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "core/summary_manager.h"
#include "exec/operator.h"
#include "rel/table.h"

namespace insightnotes::exec {

/// Attaches row `row` of table `table`'s summary objects (cloned) and the
/// attachment metadata of its non-archived annotations to `out` — from the
/// pinned epoch when `snapshot` is non-null, else live from `manager` and
/// `store`. Column positions equal base-table positions. Shared by every
/// scan: SeqScan, IndexScan and the parallel morsel source.
Status AttachRowAnnotations(const core::EngineSnapshot* snapshot,
                            core::SummaryManager* manager,
                            const ann::AnnotationStore* store, rel::TableId table,
                            rel::RowId row, core::AnnotatedTuple* out);

class SeqScanOperator final : public Operator {
 public:
  /// Scans `table` under `alias` (used to qualify output columns). When
  /// `with_summaries` is false the scan produces bare tuples — the
  /// "annotations off" baseline of the benches. `manager`/`store` must
  /// outlive the operator.
  SeqScanOperator(const rel::Table* table, std::string alias,
                  core::SummaryManager* manager, const ann::AnnotationStore* store,
                  bool with_summaries = true);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override { return "SeqScan(" + alias_ + ")"; }
  size_t EstimatedRows() const override {
    return static_cast<size_t>(table_->NumRows());
  }

  /// Reordered plans only: stamp each emitted tuple's order_ranks with its
  /// scan-emission position, the sort key the RestoreOrderOperator uses to
  /// re-establish the canonical FROM-order output.
  void EnableRankStamping() { stamp_ranks_ = true; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  const rel::Table* table_;
  std::string alias_;
  core::SummaryManager* manager_;
  const ann::AnnotationStore* store_;
  bool with_summaries_;
  bool stamp_ranks_ = false;
  rel::Schema schema_;

  // Pinned engine epoch captured from the query context at Open. Non-null
  // while the scan reads snapshot state (row visibility bound, summaries,
  // attachments); null = live reads against manager_/store_.
  std::shared_ptr<const core::EngineSnapshot> snapshot_;

  // Materialized row ids (tables are mutable between Open calls).
  std::vector<rel::RowId> rows_;
  size_t cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_SEQ_SCAN_H_
