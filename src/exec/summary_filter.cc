#include "exec/summary_filter.h"

#include <algorithm>

namespace insightnotes::exec {

Result<int64_t> SummaryCountSpec::Evaluate(const core::AnnotatedTuple& tuple) const {
  core::SummaryObject* object = tuple.FindSummary(instance);
  if (object == nullptr) return 0;
  if (label.empty()) return static_cast<int64_t>(object->NumAnnotations());
  int64_t count = 0;
  for (size_t c = 0; c < object->NumComponents(); ++c) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(std::string component_label,
                                  object->ComponentLabel(c));
    if (component_label != label) continue;
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto ids, object->ZoomIn(c));
    count += static_cast<int64_t>(ids.size());
  }
  return count;
}

std::string SummaryCountSpec::ToString() const {
  return "SUMMARY_COUNT(" + instance + (label.empty() ? "" : ", '" + label + "'") +
         ")";
}

Result<bool> SummaryFilterOperator::Passes(const core::AnnotatedTuple& tuple) const {
  INSIGHTNOTES_ASSIGN_OR_RETURN(int64_t count, spec_.Evaluate(tuple));
  switch (op_) {
    case rel::CompareOp::kEq:
      return count == threshold_;
    case rel::CompareOp::kNe:
      return count != threshold_;
    case rel::CompareOp::kLt:
      return count < threshold_;
    case rel::CompareOp::kLe:
      return count <= threshold_;
    case rel::CompareOp::kGt:
      return count > threshold_;
    case rel::CompareOp::kGe:
      return count >= threshold_;
  }
  return false;
}

Result<bool> SummaryFilterOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  size_t kept = 0;
  for (size_t i = 0; i < out->tuples.size(); ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool pass, Passes(out->tuples[i]));
    if (!pass) continue;
    if (kept != i) out->tuples[kept] = std::move(out->tuples[i]);
    Trace(out->tuples[kept]);
    ++kept;
  }
  out->tuples.resize(kept);
  return true;
}

std::string SummaryFilterOperator::Name() const {
  return "SummaryFilter(" + spec_.ToString() + " " +
         std::string(rel::CompareOpToString(op_)) + " " +
         std::to_string(threshold_) + ")";
}

Status SummarySortOperator::OpenImpl() {
  INSIGHTNOTES_RETURN_IF_ERROR(child_->Open());
  results_.Clear();
  std::vector<core::AnnotatedTuple> rows;
  rows.reserve(child_->EstimatedRows());
  std::vector<int64_t> keys;
  keys.reserve(child_->EstimatedRows());
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    for (core::AnnotatedTuple& in : batch.tuples) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(int64_t key, spec_.Evaluate(in));
      keys.push_back(key);
      rows.push_back(std::move(in));
    }
  }
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ascending_ ? keys[a] < keys[b] : keys[a] > keys[b];
  });
  results_.rows.reserve(rows.size());
  for (size_t i : order) results_.rows.push_back(std::move(rows[i]));
  return Status::OK();
}

}  // namespace insightnotes::exec
