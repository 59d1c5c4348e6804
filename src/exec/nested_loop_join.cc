#include "exec/nested_loop_join.h"

namespace insightnotes::exec {

NestedLoopJoinOperator::NestedLoopJoinOperator(std::unique_ptr<Operator> left,
                                               std::unique_ptr<Operator> right,
                                               rel::ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      schema_(rel::Schema::Concat(left_->OutputSchema(), right_->OutputSchema())) {}

Status NestedLoopJoinOperator::OpenImpl() {
  INSIGHTNOTES_RETURN_IF_ERROR(left_->Open());
  INSIGHTNOTES_RETURN_IF_ERROR(right_->Open());
  right_tuples_.clear();
  left_batch_.Clear();
  left_pos_ = 0;
  right_index_ = 0;
  ReleaseMemory();
  right_tuples_.reserve(right_->EstimatedRows());
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&batch));
    if (!more) break;
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(core::ApproxBytes(batch)));
    for (core::AnnotatedTuple& tuple : batch.tuples) {
      right_tuples_.push_back(std::move(tuple));
    }
  }
  return Status::OK();
}

Result<bool> NestedLoopJoinOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  while (left_pos_ >= left_batch_.tuples.size()) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
    if (!more) return false;
    left_pos_ = 0;
    right_index_ = 0;
  }
  while (left_pos_ < left_batch_.tuples.size() &&
         out->tuples.size() < kDefaultBatchSize) {
    const core::AnnotatedTuple& left = left_batch_.tuples[left_pos_];
    while (right_index_ < right_tuples_.size() &&
           out->tuples.size() < kDefaultBatchSize) {
      const core::AnnotatedTuple& right_tuple = right_tuples_[right_index_++];
      rel::Tuple combined = rel::Tuple::Concat(left.tuple, right_tuple.tuple);
      INSIGHTNOTES_ASSIGN_OR_RETURN(bool match, predicate_->EvaluateBool(combined));
      if (!match) continue;
      core::AnnotatedTuple& joined = out->tuples.emplace_back(left.Clone());
      INSIGHTNOTES_RETURN_IF_ERROR(core::MergeAnnotatedTuples(&joined, right_tuple));
      Trace(joined);
    }
    if (right_index_ >= right_tuples_.size()) {
      ++left_pos_;
      right_index_ = 0;
    }
  }
  return true;
}

}  // namespace insightnotes::exec
