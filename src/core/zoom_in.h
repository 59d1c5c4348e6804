// Zoom-in query processing (Section 2.2): query results are materialized as
// compact *snapshots* — tuples plus, per summary object, the rendered form
// and the annotation ids behind each component. Snapshots serve future
// ZoomIn commands without re-running the query; they are what competes for
// the RCO-managed result cache (rco_cache.h), which holds them immutable
// behind shared_ptr.

#ifndef INSIGHTNOTES_CORE_ZOOM_IN_H_
#define INSIGHTNOTES_CORE_ZOOM_IN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "annotation/annotation.h"
#include "common/result.h"
#include "core/annotated_tuple.h"
#include "rel/expression.h"
#include "rel/schema.h"

namespace insightnotes::core {

/// Result identifier handed to users for ZoomIn references.
using QueryId = uint64_t;

struct ComponentSnapshot {
  std::string label;                      // "Behavior", "A2 x5", doc title...
  std::vector<ann::AnnotationId> ids;     // Raw annotations behind it.
};

struct SummarySnapshot {
  std::string instance;   // Instance name (zoom-in's ON clause target).
  std::string rendered;   // Display form.
  std::vector<ComponentSnapshot> components;
};

struct RowSnapshot {
  rel::Tuple tuple;
  std::vector<SummarySnapshot> summaries;
};

/// Everything needed to display a result and answer zoom-ins on it.
struct ResultSnapshot {
  std::vector<std::string> column_names;
  std::vector<RowSnapshot> rows;

  /// Captures `tuples` (with their summary objects) into snapshot form.
  static Result<ResultSnapshot> Capture(const rel::Schema& schema,
                                        const std::vector<AnnotatedTuple>& tuples);

  /// Cache charge: the length of the snapshot's flat binary encoding
  /// (u32 counts and string lengths, u64 ids, tuples in rel::Tuple's
  /// format), computed arithmetically.
  size_t SizeBytes() const;
};

/// A ZoomIn command: "ZOOMIN REFERENCE QID <qid> [WHERE <predicate>]
/// ON <instance> INDEX <component>".
struct ZoomInRequest {
  QueryId qid = 0;
  rel::ExprPtr predicate;     // Optional, bound against the result schema.
  std::string instance_name;  // Which summary object.
  size_t component_index = 0; // Which component within it (0-based).
};

struct ZoomInRowResult {
  size_t row_index = 0;          // Position in the referenced result.
  rel::Tuple tuple;              // The result row itself.
  std::string component_label;   // e.g. "refute".
  std::vector<ann::Annotation> annotations;  // The raw annotations.
};

struct ZoomInResult {
  std::vector<ZoomInRowResult> rows;
  bool served_from_cache = false;  // False when the query was re-executed.
};

/// Resolves `request` against a snapshot: selects rows by predicate, finds
/// the named summary, and returns each matching row's index with a pointer
/// to its component inside `snapshot` (valid while the snapshot lives;
/// bodies are fetched by the engine).
Result<std::vector<std::pair<size_t, const ComponentSnapshot*>>> ResolveZoomIn(
    const ResultSnapshot& snapshot, const ZoomInRequest& request);

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_ZOOM_IN_H_
