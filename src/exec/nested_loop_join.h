// Nested-loop join for arbitrary (non-equi) join predicates, with the same
// summary-merge semantics as the hash join.

#ifndef INSIGHTNOTES_EXEC_NESTED_LOOP_JOIN_H_
#define INSIGHTNOTES_EXEC_NESTED_LOOP_JOIN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "rel/expression.h"

namespace insightnotes::exec {

class NestedLoopJoinOperator final : public Operator {
 public:
  /// `predicate` is evaluated against the concatenated (left, right) tuple.
  NestedLoopJoinOperator(std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right, rel::ExprPtr predicate);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override { return "NestedLoopJoin" + predicate_->ToString(); }
  std::vector<Operator*> Children() override { return {left_.get(), right_.get()}; }

 protected:
  Status OpenImpl() override;
  /// Emits at most kDefaultBatchSize joined tuples per call, resuming the
  /// (left batch, right index) cursor where the previous call stopped.
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  rel::ExprPtr predicate_;
  rel::Schema schema_;

  std::vector<core::AnnotatedTuple> right_tuples_;  // Materialized inner.
  core::AnnotatedBatch left_batch_;  // Current outer batch.
  size_t left_pos_ = 0;              // Outer tuple being joined.
  size_t right_index_ = 0;           // Next inner tuple for it.
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_NESTED_LOOP_JOIN_H_
