#include "exec/filter.h"

namespace insightnotes::exec {

Result<bool> FilterOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  size_t kept = 0;
  for (size_t i = 0; i < out->tuples.size(); ++i) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool pass,
                                  predicate_->EvaluateBool(out->tuples[i].tuple));
    if (!pass) continue;
    if (kept != i) out->tuples[kept] = std::move(out->tuples[i]);
    Trace(out->tuples[kept]);
    ++kept;
  }
  out->tuples.resize(kept);
  return true;
}

}  // namespace insightnotes::exec
