// Selection: passes tuples matching the predicate; summaries propagate
// unchanged (Figure 2 step 2).

#ifndef INSIGHTNOTES_EXEC_FILTER_H_
#define INSIGHTNOTES_EXEC_FILTER_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "rel/expression.h"

namespace insightnotes::exec {

class FilterOperator final : public Operator {
 public:
  FilterOperator(std::unique_ptr<Operator> child, rel::ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  const rel::Schema& OutputSchema() const override { return child_->OutputSchema(); }
  std::string Name() const override { return "Filter" + predicate_->ToString(); }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  /// Consumes exactly one child batch per call and filters it in place,
  /// preserving the morsel tag. The output batch may be empty (only a
  /// `false` return means exhausted).
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  rel::ExprPtr predicate_;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_FILTER_H_
