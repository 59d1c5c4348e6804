#include "exec/operator.h"

#include <algorithm>

#include "common/clock.h"

namespace insightnotes::exec {

Status Operator::Open() {
  root_batch_.Clear();
  root_pos_ = 0;
  INSIGHTNOTES_RETURN_IF_ERROR(CheckInterrupt());
  if (!metrics_enabled_) return OpenImpl();
  Stopwatch watch;
  Status status = OpenImpl();
  metrics_.wall_ns += static_cast<uint64_t>(watch.ElapsedNanos());
  return status;
}

Result<bool> Operator::Next(core::AnnotatedTuple* out) {
  while (root_pos_ >= root_batch_.tuples.size()) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, NextBatch(&root_batch_));
    root_pos_ = 0;
    if (!more) return false;
  }
  *out = std::move(root_batch_.tuples[root_pos_++]);
  return true;
}

Result<bool> Operator::NextBatch(core::AnnotatedBatch* out) {
  out->Clear();
  INSIGHTNOTES_RETURN_IF_ERROR(CheckInterrupt());
  Result<bool> more = [&]() -> Result<bool> {
    if (!metrics_enabled_) return NextBatchImpl(out);
    Stopwatch watch;
    Result<bool> r = NextBatchImpl(out);
    metrics_.wall_ns += static_cast<uint64_t>(watch.ElapsedNanos());
    return r;
  }();
  if (more.ok() && *more) {
    ++metrics_.batches_out;
    metrics_.rows_out += out->tuples.size();
  }
  return more;
}

Status Operator::Close() {
  // Parent-first so operators holding in-flight worker jobs (gather, join
  // build) quiesce before the shared state and children they reference are
  // torn down; memory goes back to the budget last.
  Status status = CloseImpl();
  for (Operator* child : Children()) {
    Status child_status = child->Close();
    if (status.ok()) status = child_status;
  }
  root_batch_.Clear();
  root_pos_ = 0;
  ReleaseMemory();
  return status;
}

bool Operator::EmitRows(MaterializedRows* rows, core::AnnotatedBatch* out) const {
  if (rows->cursor >= rows->rows.size()) return false;
  size_t end = std::min(rows->rows.size(), rows->cursor + kDefaultBatchSize);
  out->tuples.reserve(end - rows->cursor);
  for (; rows->cursor < end; ++rows->cursor) {
    Trace(rows->rows[rows->cursor]);
    out->tuples.push_back(std::move(rows->rows[rows->cursor]));
  }
  return true;
}

}  // namespace insightnotes::exec
