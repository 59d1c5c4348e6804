// SummaryManager: instance registry, instance<->relation links (the
// many-to-many of Figure 4), and incremental maintenance of the per-row
// summary objects as annotations stream in (Section 2.3).

#ifndef INSIGHTNOTES_CORE_SUMMARY_MANAGER_H_
#define INSIGHTNOTES_CORE_SUMMARY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/result.h"
#include "core/annotated_tuple.h"
#include "core/summary_instance.h"
#include "core/summary_object.h"

namespace insightnotes {
class ThreadPool;
}

namespace insightnotes::core {

/// One annotation of an ingest batch, fully materialized (body included) so
/// ingest shards never touch the annotation store's heap file.
struct BatchAnnotation {
  ann::Annotation note;
  ann::CellRegion region;
};

/// The mergeable summary half of a group / distinct-set entry: the summary
/// objects and attachment metadata of every tuple collapsed into the entry
/// so far. The serial operators fold tuples into it one at a time (Seed +
/// Fold); the parallel partial-state operators additionally Combine whole
/// per-morsel states in ascending morsel order, which re-associates the
/// same left-fold and therefore yields byte-identical merged summaries
/// (see DESIGN.md "Parallel aggregation, sort, and distinct").
///
/// `whole_row` selects the attachment semantics: aggregation collapses a
/// group to one output row whose attachments are whole-row references (the
/// per-column coverage of the source tuples is meaningless on the
/// aggregated row), while DISTINCT keeps per-column coverage and unions
/// column sets exactly like MergeForGrouping.
class PartialSummaryState {
 public:
  PartialSummaryState() = default;
  PartialSummaryState(PartialSummaryState&&) noexcept = default;
  PartialSummaryState& operator=(PartialSummaryState&&) noexcept = default;
  PartialSummaryState(const PartialSummaryState&) = delete;
  PartialSummaryState& operator=(const PartialSummaryState&) = delete;

  /// Adopts the first tuple of the entry: moves its summaries (and, for
  /// `whole_row == false`, its attachments) into the state; `first->tuple`
  /// is left untouched for the caller. `reserve_hint` pre-sizes the
  /// attachment merge buffer so folding duplicates does not reallocate per
  /// tuple.
  void Seed(AnnotatedTuple* first, bool whole_row, size_t reserve_hint);

  /// Folds one further tuple of the entry (a duplicate of the seed under
  /// the grouping key). Byte-identical to the serial merge path.
  Status Fold(const AnnotatedTuple& dup);

  /// Folds a whole later state (same key, later morsels) into this one.
  Status Combine(PartialSummaryState&& other);

  /// Moves the merged summaries and attachments onto `out`.
  void Release(AnnotatedTuple* out);

 private:
  bool whole_row_ = false;
  std::vector<std::unique_ptr<SummaryObject>> summaries_;
  std::vector<AttachmentInfo> attachments_;
};

class SummaryManager {
 public:
  /// `store` must outlive the manager.
  explicit SummaryManager(ann::AnnotationStore* store) : store_(store) {}

  SummaryManager(const SummaryManager&) = delete;
  SummaryManager& operator=(const SummaryManager&) = delete;

  // --- Instance registry (level 2) ---------------------------------------
  Status RegisterInstance(std::unique_ptr<SummaryInstance> instance);
  Result<SummaryInstance*> GetInstance(const std::string& name) const;
  std::vector<std::string> InstanceNames() const;

  // --- Links (instance <-> relation, many-to-many) ------------------------
  /// Linking an instance to a table summarizes all existing annotations on
  /// that table immediately and maintains them incrementally afterwards.
  /// With `threads > 1` that re-summarization runs the sharded fold of
  /// ApplyAnnotationBatch over the table's attachments, restricted to the
  /// new instance and taken a chunk at a time in scan order; the objects are
  /// byte-identical to the serial scan's.
  Status Link(const std::string& instance_name, rel::TableId table, size_t threads = 1);
  /// Unlinking drops the instance's objects on that table.
  Status Unlink(const std::string& instance_name, rel::TableId table);
  std::vector<SummaryInstance*> LinkedTo(rel::TableId table) const;
  bool IsLinked(const std::string& instance_name, rel::TableId table) const;
  /// Copy of the full link map (snapshot publication captures it so the
  /// empty-object fallback is evaluated against epoch-time links).
  std::map<rel::TableId, std::vector<SummaryInstance*>> AllLinks() const {
    return links_;
  }

  // --- Incremental maintenance --------------------------------------------
  /// Folds annotation `id` (just attached to `region`) into the summary
  /// objects of that row for every linked instance. Archived annotations
  /// are skipped. Called by the engine after AnnotationStore::Add/Attach.
  Status OnAnnotationAttached(ann::AnnotationId id, const ann::CellRegion& region);

  /// Folds a whole ingest batch into the maintained summary objects. With a
  /// null `pool` (or a single worker) items are folded serially in batch
  /// order — exactly N calls to the OnAnnotationAttached path. With a pool,
  /// ingestion is sharded by target row: per-tuple summary state is
  /// partitionable by row id, so shards own disjoint row sets and fold
  /// their rows' annotations in batch order. Cluster vocabulary growth is
  /// committed in a deterministic serial pre-pass (tokenization itself runs
  /// on the pool), so the resulting summary objects are byte-identical to a
  /// serial ingest of the same batch. On error the batch is not rolled
  /// back; affected rows can be repaired with RebuildRow.
  Status ApplyAnnotationBatch(const std::vector<BatchAnnotation>& batch,
                              ThreadPool* pool = nullptr);

  /// Recomputes one row's objects from scratch (the non-incremental
  /// baseline of experiment E1, and the unarchive path).
  Status RebuildRow(rel::TableId table, rel::RowId row);

  // --- Query-time access ----------------------------------------------------
  /// Deep copies of the row's summary objects (scan operators take these
  /// into the pipeline). Rows without annotations get empty objects, one
  /// per linked instance.
  Result<std::vector<std::unique_ptr<SummaryObject>>> SummariesFor(
      rel::TableId table, rel::RowId row) const;

  /// The maintained objects themselves (read-only), or nullptr if the row
  /// has none yet.
  const std::vector<std::unique_ptr<SummaryObject>>* RowObjects(
      rel::TableId table, rel::RowId row) const;

  uint64_t NumMaintainedRows() const { return objects_.size(); }

  // --- Graceful degradation -------------------------------------------------
  /// When a summarizer fails on one annotation, the affected row's summary
  /// objects are marked stale and ingest continues; the raw annotation is
  /// already durable, so the summaries can be recomputed later. Stale rows
  /// still answer queries (with the last successfully folded state).

  /// True if the row's summary objects missed at least one annotation.
  bool IsStale(rel::TableId table, rel::RowId row) const;

  /// All currently stale rows, in (table, row) order.
  std::vector<std::pair<rel::TableId, rel::RowId>> StaleRows() const;

  /// Recomputes every stale row from the annotation store and clears its
  /// stale mark. Returns how many rows were repaired; a row whose rebuild
  /// fails again stays stale and the first error is returned.
  Result<size_t> RepairStale();

  /// Deterministic failure injection for tests: invoked before each
  /// summarizer fold with the instance name and the annotation; a non-OK
  /// return is treated as a summarizer failure for that fold.
  using SummarizerFaultHook =
      std::function<Status(const std::string& instance_name, const ann::Annotation& note)>;
  void SetSummarizerFaultHook(SummarizerFaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  using RowKey = std::pair<rel::TableId, rel::RowId>;

  /// Returns the row's object for `instance`, creating it if needed.
  SummaryObject* GetOrCreateObject(const RowKey& key, SummaryInstance* instance);

  /// Folds one materialized annotation into `row`'s objects for every
  /// linked instance (the shared core of OnAnnotationAttached and the batch
  /// path). Summarizer failures degrade to a stale mark, not an error.
  Status FoldAnnotation(const ann::Annotation& note, const ann::CellRegion& region);

  /// Phases of the pooled ApplyAnnotationBatch: parallel tokenization,
  /// serial vocabulary commit and object creation, then a fold sharded by
  /// row. `only` restricts the fold to one instance (Link); null folds into
  /// every instance linked to an item's table.
  Status FoldBatchSharded(const std::vector<BatchAnnotation>& batch, ThreadPool* pool,
                          SummaryInstance* only);

  /// One summarizer fold: fault hook (if set), then AddAnnotation.
  Status ApplyToObject(SummaryObject* object, SummaryInstance* instance,
                       const ann::Annotation& note);

  void MarkStale(const RowKey& key);

  ann::AnnotationStore* store_;
  std::map<std::string, std::unique_ptr<SummaryInstance>> instances_;
  std::map<rel::TableId, std::vector<SummaryInstance*>> links_;
  // Maintained per-row summary objects, one per linked instance.
  std::map<RowKey, std::vector<std::unique_ptr<SummaryObject>>> objects_;
  // Rows whose objects missed a fold. Guarded by a mutex because phase-4
  // batch shards mark rows stale concurrently.
  mutable std::mutex stale_mutex_;
  std::set<RowKey> stale_rows_;
  SummarizerFaultHook fault_hook_;
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_SUMMARY_MANAGER_H_
