#include "exec/seq_scan.h"

#include <algorithm>

#include "core/engine_snapshot.h"

namespace insightnotes::exec {

Status AttachRowAnnotations(const core::EngineSnapshot* snapshot,
                            core::SummaryManager* manager,
                            const ann::AnnotationStore* store, rel::TableId table,
                            rel::RowId row, core::AnnotatedTuple* out) {
  if (snapshot != nullptr) {
    // Summaries and attachment metadata from the pinned epoch: concurrent
    // writers maintain newer versions without this scan observing them.
    INSIGHTNOTES_ASSIGN_OR_RETURN(out->summaries, snapshot->SummariesFor(table, row));
    snapshot->AppendAttachments(table, row, &out->attachments);
    return Status::OK();
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(out->summaries, manager->SummariesFor(table, row));
  // Archived annotations stay out of the pipeline.
  for (const ann::Attachment& att : store->OnRow(table, row)) {
    if (store->IsArchived(att.annotation)) continue;
    out->attachments.push_back(core::AttachmentInfo{att.annotation, att.columns});
  }
  return Status::OK();
}

SeqScanOperator::SeqScanOperator(const rel::Table* table, std::string alias,
                                 core::SummaryManager* manager,
                                 const ann::AnnotationStore* store,
                                 bool with_summaries)
    : table_(table),
      alias_(std::move(alias)),
      manager_(manager),
      store_(store),
      with_summaries_(with_summaries),
      schema_(table->schema().WithQualifier(alias_.empty() ? table->name() : alias_)) {
  if (alias_.empty()) alias_ = table->name();
}

Status SeqScanOperator::OpenImpl() {
  rows_.clear();
  cursor_ = 0;
  snapshot_ = query_context() != nullptr ? query_context()->snapshot() : nullptr;
  if (snapshot_ != nullptr && snapshot_->CoversTable(table_->id())) {
    // Snapshot read: rows inserted after the pinned epoch sit at or beyond
    // the epoch's row bound and stay invisible to this scan.
    rel::RowId bound = snapshot_->VisibleRows(table_->id());
    for (rel::RowId row = 0; row < bound; ++row) {
      if (table_->IsLive(row)) rows_.push_back(row);
    }
    return Status::OK();
  }
  // Live read (no pinned epoch, or a table the epoch predates).
  snapshot_ = nullptr;
  return table_->Scan([&](rel::RowId row, const rel::Tuple&) {
    rows_.push_back(row);
    return true;
  });
}

Result<bool> SeqScanOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  if (cursor_ >= rows_.size()) return false;
  size_t end = std::min(rows_.size(), cursor_ + kDefaultBatchSize);
  out->tuples.reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) {
    rel::RowId row = rows_[cursor_];
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Tuple tuple, table_->Get(row));
    core::AnnotatedTuple& emitted = out->tuples.emplace_back(std::move(tuple));
    if (stamp_ranks_) emitted.order_ranks.assign(1, static_cast<uint32_t>(cursor_));
    if (with_summaries_) {
      INSIGHTNOTES_RETURN_IF_ERROR(AttachRowAnnotations(
          snapshot_.get(), manager_, store_, table_->id(), row, &emitted));
    }
    Trace(emitted);
  }
  return true;
}

}  // namespace insightnotes::exec
