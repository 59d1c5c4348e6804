#include "core/zoom_in.h"

namespace insightnotes::core {

Result<ResultSnapshot> ResultSnapshot::Capture(
    const rel::Schema& schema, const std::vector<AnnotatedTuple>& tuples) {
  ResultSnapshot snapshot;
  snapshot.column_names.reserve(schema.NumColumns());
  for (const rel::Column& c : schema.columns()) {
    snapshot.column_names.push_back(c.QualifiedName());
  }
  snapshot.rows.reserve(tuples.size());
  for (const AnnotatedTuple& t : tuples) {
    RowSnapshot row;
    row.tuple = t.tuple;
    row.summaries.reserve(t.summaries.size());
    for (const auto& object : t.summaries) {
      SummarySnapshot s;
      s.instance = object->instance_name();
      s.rendered = object->Render();
      size_t n = object->NumComponents();
      s.components.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        ComponentSnapshot component;
        INSIGHTNOTES_ASSIGN_OR_RETURN(component.label, object->ComponentLabel(i));
        INSIGHTNOTES_ASSIGN_OR_RETURN(component.ids, object->ZoomIn(i));
        s.components.push_back(std::move(component));
      }
      row.summaries.push_back(std::move(s));
    }
    snapshot.rows.push_back(std::move(row));
  }
  return snapshot;
}

size_t ResultSnapshot::SizeBytes() const {
  constexpr size_t kCount = sizeof(uint32_t);  // Counts and string lengths.
  size_t size = kCount;
  for (const std::string& name : column_names) size += kCount + name.size();
  size += kCount;
  for (const RowSnapshot& row : rows) {
    size += row.tuple.SerializedSize() + kCount;
    for (const SummarySnapshot& s : row.summaries) {
      size += kCount + s.instance.size() + kCount + s.rendered.size() + kCount;
      for (const ComponentSnapshot& c : s.components) {
        size += kCount + c.label.size() + kCount +
                c.ids.size() * sizeof(uint64_t);
      }
    }
  }
  return size;
}

Result<std::vector<std::pair<size_t, const ComponentSnapshot*>>> ResolveZoomIn(
    const ResultSnapshot& snapshot, const ZoomInRequest& request) {
  std::vector<std::pair<size_t, const ComponentSnapshot*>> out;
  for (size_t r = 0; r < snapshot.rows.size(); ++r) {
    const RowSnapshot& row = snapshot.rows[r];
    if (request.predicate != nullptr) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(bool pass, request.predicate->EvaluateBool(row.tuple));
      if (!pass) continue;
    }
    const SummarySnapshot* target = nullptr;
    for (const SummarySnapshot& s : row.summaries) {
      if (s.instance == request.instance_name) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      return Status::NotFound("result has no summary object of instance '" +
                              request.instance_name + "'");
    }
    if (request.component_index >= target->components.size()) {
      // Rows where the component is absent (e.g. fewer cluster groups)
      // contribute nothing rather than failing the whole command.
      continue;
    }
    out.emplace_back(r, &target->components[request.component_index]);
  }
  return out;
}

}  // namespace insightnotes::core
