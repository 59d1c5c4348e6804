#include "exec/index_scan.h"

#include <algorithm>

#include "core/engine_snapshot.h"
#include "exec/seq_scan.h"

namespace insightnotes::exec {

std::string IndexProbeSpec::ToString() const {
  std::string out =
      column_name.empty() ? "col" + std::to_string(column) : column_name;
  if (has_eq) return out + " = " + eq.ToString();
  std::string lo_s = has_lo ? lo.ToString() : "-inf";
  std::string hi_s = has_hi ? hi.ToString() : "+inf";
  return out + " in [" + lo_s + ", " + hi_s + "]";
}

Status ProbeIndex(const rel::Table& table, const IndexProbeSpec& probe,
                  std::vector<rel::RowId>* out) {
  // CreateIndex rebuilds the index structure under the table's exclusive
  // latch; the shared latch keeps the probe consistent against it.
  auto latch = table.ReadLock();
  const rel::TableIndex* index = table.IndexOn(probe.column);
  if (index == nullptr) {
    return Status::InvalidArgument("table '" + table.name() + "' has no index on column " +
                                   std::to_string(probe.column));
  }
  size_t first = out->size();
  if (probe.has_eq) {
    INSIGHTNOTES_RETURN_IF_ERROR(index->LookupInto(probe.eq, out));
  } else {
    INSIGHTNOTES_RETURN_IF_ERROR(
        index->RangeInto(probe.has_lo ? &probe.lo : nullptr,
                         probe.has_hi ? &probe.hi : nullptr, out));
  }
  // The index yields rows grouped by key; re-establish global RowId order
  // so the emission order is a subsequence of the SeqScan order.
  std::sort(out->begin() + first, out->end());
  return Status::OK();
}

IndexScanOperator::IndexScanOperator(const rel::Table* table, std::string alias,
                                     core::SummaryManager* manager,
                                     const ann::AnnotationStore* store,
                                     IndexProbeSpec probe, bool with_summaries)
    : table_(table),
      alias_(std::move(alias)),
      manager_(manager),
      store_(store),
      probe_(std::move(probe)),
      with_summaries_(with_summaries),
      schema_(table->schema().WithQualifier(alias_.empty() ? table->name() : alias_)) {
  if (alias_.empty()) alias_ = table->name();
}

Status IndexScanOperator::OpenImpl() {
  rows_.clear();
  cursor_ = 0;
  snapshot_ = query_context() != nullptr ? query_context()->snapshot() : nullptr;
  if (snapshot_ != nullptr && !snapshot_->CoversTable(table_->id())) {
    snapshot_ = nullptr;  // Table the pinned epoch predates: live reads.
  }
  INSIGHTNOTES_RETURN_IF_ERROR(ProbeIndex(*table_, probe_, &rows_));
  if (snapshot_ != nullptr) {
    // The probe runs against the live index, which may already contain
    // rows inserted after the pinned epoch; cut back to the epoch's row
    // bound (rows_ is sorted ascending).
    rel::RowId bound = snapshot_->VisibleRows(table_->id());
    auto first_invisible =
        std::lower_bound(rows_.begin(), rows_.end(), bound);
    rows_.erase(first_invisible, rows_.end());
  }
  return Status::OK();
}

Result<bool> IndexScanOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  if (cursor_ >= rows_.size()) return false;
  size_t end = std::min(rows_.size(), cursor_ + kDefaultBatchSize);
  for (; cursor_ < end; ++cursor_) {
    rel::RowId row = rows_[cursor_];
    if (!table_->IsLive(row)) continue;  // Deleted since the probe.
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
