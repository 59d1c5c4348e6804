// Projection — the semantically richest summary operator (Figure 2 step 1,
// Theorems 1 & 2 of the full paper). Besides projecting the data columns it
// eliminates the effect of every annotation attached exclusively to
// projected-out columns: classifier counts are decremented, snippets of
// dropped documents deleted, cluster members removed with representative
// re-election. The planner places projections *before* merge operators so
// equivalent plans propagate identical summaries.

#ifndef INSIGHTNOTES_EXEC_PROJECTION_H_
#define INSIGHTNOTES_EXEC_PROJECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "rel/expression.h"

namespace insightnotes::exec {

struct ProjectionItem {
  rel::ExprPtr expr;        // Evaluated against the child tuple.
  std::string output_name;  // Bare output column name.
  std::string qualifier;    // Output qualifier (may be empty).
  rel::ValueType type = rel::ValueType::kNull;  // Best-effort static type.
};

class ProjectOperator final : public Operator {
 public:
  /// `trim_annotations` selects between the two projection roles:
  ///  * true — the Theorem-1 normalization projection: annotations attached
  ///    only to dropped columns are *eliminated* from the summaries. The
  ///    planner places these below every merge operator.
  ///  * false — a plumbing projection (e.g. Figure 2 step 4, dropping the
  ///    join column s.x after the join): summaries propagate unchanged;
  ///    coverage of fully-dropped columns degrades to whole-row.
  ProjectOperator(std::unique_ptr<Operator> child, std::vector<ProjectionItem> items,
                  bool trim_annotations = true);

  /// Convenience: project child columns by (qualified) name.
  static Result<std::unique_ptr<ProjectOperator>> FromColumns(
      std::unique_ptr<Operator> child, const std::vector<std::string>& names,
      bool trim_annotations = true);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  /// One child batch in, one (same-morsel) batch out.
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  /// Trims/remaps annotations and projects the data values of one tuple.
  Status ProjectTuple(core::AnnotatedTuple* in, core::AnnotatedTuple* out) const;

  std::unique_ptr<Operator> child_;
  std::vector<ProjectionItem> items_;
  rel::Schema schema_;
  // kept_[c]: output item indexes that reference child column c.
  std::vector<std::vector<size_t>> kept_positions_;
  std::vector<size_t> kept_columns_;  // Child columns referenced by any item.
  bool trim_annotations_;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_PROJECTION_H_
