// Morsel-driven parallel execution (after HyPer, Leis et al.; see
// PAPERS.md): the planner replicates the per-tuple pipeline section of a
// plan (scan -> filters -> Theorem-1 projections -> hash-join probes ->
// summary filters) into P worker pipelines that share
//
//   * a ScanMorselSource — the driving table materialized once, handing
//     out fixed-size tuple-range morsels through an atomic cursor, and
//   * any HashJoinBuildState (see exec/hash_join.h) — built once, probed
//     concurrently.
//
// GatherOperator owns the worker pipelines and the shared states, runs the
// workers on the engine's thread pool, and re-serializes their output in
// morsel order. Because every pipeline stage is a pure per-tuple function
// over immutable shared state, each morsel's output batch is independent
// of which worker ran it — so the gathered stream (tuples, merged summary
// objects, re-elected cluster representatives, attachment metadata) is
// byte-identical to serial execution, preserving the Theorems 1 & 2
// plan-equivalence guarantees.

#ifndef INSIGHTNOTES_EXEC_PARALLEL_H_
#define INSIGHTNOTES_EXEC_PARALLEL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/thread_pool.h"
#include "core/summary_manager.h"
#include "exec/index_scan.h"
#include "exec/operator.h"
#include "rel/table.h"

namespace insightnotes::exec {

/// State shared by all worker pipelines of one parallel plan. Gather
/// resets each registered state exactly once per Open, in registration
/// order, before any worker job is submitted.
class SharedPlanState {
 public:
  virtual ~SharedPlanState() = default;
  virtual Status Reset() = 0;

  /// Wires the statement lifecycle context into states that materialize
  /// memory (morsel prefetch, join builds) so Reset can charge the budget
  /// and poll for cancellation. `context` may be nullptr (detach); states
  /// keep the shared_ptr so a retained plan's context stays alive.
  virtual void AttachQueryContext(std::shared_ptr<QueryContext> /*context*/) {}
};

/// Cooperative row quota of a plain `LIMIT k` parallel plan (no ORDER BY).
/// Serial semantics take the first k surviving rows in morsel order, so
/// dispatch can stop early: workers report each completed morsel's
/// surviving row count, the quota advances a contiguous-prefix pointer
/// over completed morsels, and it is satisfied once the prefix carries at
/// least k rows. Because morsels are claimed off a contiguous atomic
/// cursor, every morsel before the prefix pointer has been dispatched —
/// the gathered stream therefore always contains the serial first k rows,
/// and whatever the still-running workers publish past them is trimmed by
/// the Limit above. Stopping dispatch can only *shrink* the tail, never
/// change the first k rows, so results stay byte-identical to serial.
class RowQuota final : public SharedPlanState {
 public:
  explicit RowQuota(size_t limit) : limit_(limit) {}

  Status Reset() override;
  size_t limit() const { return limit_; }

  /// Records that morsel `morsel` completed with `rows` surviving rows.
  /// Called from worker threads as batches reach the gather.
  void OnMorselDone(uint64_t morsel, size_t rows);

  /// True once the contiguous completed prefix carries >= limit rows
  /// (immediately for LIMIT 0). One relaxed atomic load on the fast path.
  bool Satisfied() const { return satisfied_.load(std::memory_order_acquire); }

 private:
  const size_t limit_;
  std::atomic<bool> satisfied_{false};
  std::mutex mutex_;
  std::unordered_map<uint64_t, size_t> pending_;  // Done, not yet in prefix.
  uint64_t prefix_morsel_ = 0;  // First morsel not folded into the prefix.
  size_t prefix_rows_ = 0;      // Surviving rows in morsels [0, prefix_morsel_).
};

/// The driving table of a parallel pipeline section. Reset materializes
/// the live rows *and their data tuples* in one serial scan pass (the
/// buffer pool below rel::Table is single-threaded); workers then only do
/// CPU work — summary clones, attachment metadata, downstream stages.
class ScanMorselSource final : public SharedPlanState {
 public:
  ScanMorselSource(const rel::Table* table, std::string alias,
                   core::SummaryManager* manager, const ann::AnnotationStore* store,
                   bool with_summaries, size_t morsel_size);

  Status Reset() override;
  void AttachQueryContext(std::shared_ptr<QueryContext> context) override;

  /// Claims the next unprocessed morsel index. Thread-safe; false when the
  /// table is exhausted, an attached RowQuota is satisfied, or dispatch
  /// was aborted (worker failure / cancellation).
  bool ClaimMorsel(uint64_t* morsel);

  /// Stops handing out morsels: peer workers of a failed/cancelled worker
  /// drain via exhaustion at their next claim instead of scanning on.
  /// Thread-safe; cleared by Reset. The gather still reports the recorded
  /// error, so an aborted dispatch can never pass off a truncated result
  /// as success.
  void AbortDispatch() { abort_.store(true, std::memory_order_release); }
  bool dispatch_aborted() const {
    return abort_.load(std::memory_order_acquire);
  }

  /// Attaches a LIMIT row quota: once satisfied, ClaimMorsel stops
  /// dispatching. Set by the planner before execution.
  void SetQuota(std::shared_ptr<RowQuota> quota) { quota_ = std::move(quota); }

  /// Restricts the materialized rows to an index probe's matches (see
  /// exec/index_scan.h): Reset probes the table's index instead of
  /// scanning, yielding rows in ascending RowId order — a subsequence of
  /// the full-scan order, so morsel-order gathering semantics carry over
  /// unchanged. Set by the planner before execution.
  void SetIndexProbe(IndexProbeSpec probe) {
    probe_ = std::move(probe);
    has_probe_ = true;
  }
  bool has_probe() const { return has_probe_; }
  const IndexProbeSpec& probe() const { return probe_; }

  /// See SeqScanOperator::EnableRankStamping: Materialize stamps each
  /// tuple's order_ranks with its global scan position. Positions are
  /// stable across morsels (index into the materialized row vector), so
  /// parallel and serial plans stamp identical ranks.
  void EnableRankStamping() { stamp_ranks_ = true; }

  /// Rows of morsels never dispatched (quota stopped the scan early).
  /// Meaningful once the parallel section has drained.
  size_t UndispatchedRows() const;

  /// Materializes morsel `morsel`'s AnnotatedTuples into `out` (summary
  /// clones + attachment metadata, exactly as SeqScanOperator would emit
  /// them). Safe to call concurrently for distinct morsels.
  Status Materialize(uint64_t morsel, core::AnnotatedBatch* out) const;

  const rel::Schema& schema() const { return schema_; }
  const std::string& alias() const { return alias_; }
  size_t EstimatedRows() const { return static_cast<size_t>(table_->NumRows()); }

 private:
  const rel::Table* table_;
  std::string alias_;
  core::SummaryManager* manager_;
  const ann::AnnotationStore* store_;
  bool with_summaries_;
  size_t morsel_size_;
  rel::Schema schema_;

  IndexProbeSpec probe_;            // Valid when has_probe_.
  bool has_probe_ = false;
  bool stamp_ranks_ = false;

  // Pinned engine epoch captured from the context at Reset; null = live
  // reads. See SeqScanOperator::snapshot_. Reset runs serially before the
  // workers start, so the capture is ordered before all Materialize calls.
  std::shared_ptr<const core::EngineSnapshot> snapshot_;

  std::vector<rel::RowId> rows_;    // Live row ids, insertion order.
  std::vector<rel::Tuple> tuples_;  // Prefetched data tuples, same order.
  std::atomic<uint64_t> next_morsel_{0};
  std::atomic<bool> abort_{false};
  std::shared_ptr<RowQuota> quota_;  // Null unless a LIMIT was pushed down.
  std::shared_ptr<QueryContext> context_;  // Nullable.
  MemoryReservation reservation_;          // Charges the prefetched tuples.
};

/// Per-worker scan stage over a shared ScanMorselSource. Open is a no-op
/// (the source is reset by the owning GatherOperator).
class MorselScanOperator final : public Operator {
 public:
  explicit MorselScanOperator(std::shared_ptr<ScanMorselSource> source)
      : source_(std::move(source)) {}

  const rel::Schema& OutputSchema() const override { return source_->schema(); }
  std::string Name() const override {
    if (source_->has_probe()) {
      return "MorselIndexScan(" + source_->alias() + "." +
             source_->probe().ToString() + ")";
    }
    return "MorselScan(" + source_->alias() + ")";
  }
  size_t EstimatedRows() const override { return source_->EstimatedRows(); }

  /// No morsel claimed yet (error before the first claim sorts first).
  static constexpr uint64_t kNoMorselClaimed = ~uint64_t{0};

  /// The morsel most recently claimed by this worker's scan —
  /// kNoMorselClaimed before the first claim. Written by the worker
  /// thread; the gather reads it after joining the worker to order
  /// failures by morsel (first-error-in-morsel-order).
  uint64_t last_claimed_morsel() const { return last_claimed_morsel_; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::shared_ptr<ScanMorselSource> source_;
  uint64_t last_claimed_morsel_ = kNoMorselClaimed;
};

/// Exchange: runs P worker pipelines over the shared morsel source on the
/// engine's thread pool and re-serializes their batches in morsel order,
/// making the output order (and content) identical to serial execution.
/// With a null pool or a single worker the pipeline runs inline.
class GatherOperator final : public Operator {
 public:
  GatherOperator(std::vector<std::unique_ptr<Operator>> workers,
                 std::vector<std::shared_ptr<SharedPlanState>> states,
                 ThreadPool* pool);

  const rel::Schema& OutputSchema() const override {
    return workers_.front()->OutputSchema();
  }
  std::string Name() const override {
    return "Gather(" + std::to_string(workers_.size()) + ")";
  }
  std::vector<Operator*> Children() override;
  size_t EstimatedRows() const override {
    return workers_.front()->EstimatedRows();
  }
  /// Serializes the sink: worker pipelines emit from pool threads.
  void SetTraceSink(TraceSink sink) override;
  /// Forwards the context to worker pipelines and shared states, and
  /// attaches one gather-buffer reservation per worker.
  void SetQueryContext(std::shared_ptr<QueryContext> context) override;

  /// Wires the LIMIT row-quota protocol: drained batches report their
  /// surviving rows to `quota`, and rows `source` never dispatched count
  /// as this operator's rows_pruned.
  void EnableRowQuota(std::shared_ptr<RowQuota> quota,
                      std::shared_ptr<ScanMorselSource> source) {
    quota_ = std::move(quota);
    quota_source_ = std::move(source);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;
  /// Joins any outstanding worker jobs before shared states or the worker
  /// pipelines can be torn down — the cancellation-path half of teardown.
  Status CloseImpl() override;

 private:
  /// Runs worker `w`'s pipeline to exhaustion, charging its gathered
  /// batches to the budget. On failure, aborts morsel dispatch so peers
  /// drain at their next claim.
  Status DrainWorker(size_t w);
  /// DrainWorker with exception containment: a throwing pipeline stage
  /// surfaces as Status::Internal on the gather path, never std::terminate.
  Status RunWorkerContained(size_t w);
  /// Joins all outstanding futures, recording each worker's Status.
  void JoinWorkers();
  /// The error to surface: user cancellation/deadline first (uniform
  /// across workers), otherwise the failure with the smallest
  /// (last-claimed-morsel, worker) — deterministic regardless of which
  /// worker's job happened to fail first on the clock.
  Status FirstWorkerError() const;

  std::vector<std::unique_ptr<Operator>> workers_;
  std::vector<std::shared_ptr<SharedPlanState>> states_;
  ThreadPool* pool_;
  std::shared_ptr<RowQuota> quota_;             // Null without LIMIT pushdown.
  std::shared_ptr<ScanMorselSource> quota_source_;
  std::shared_ptr<ScanMorselSource> source_;    // Dispatch-abort target.
  std::vector<MorselScanOperator*> leaves_;     // Per-worker scan leaf (nullable).

  // Per-worker execution state. collected_[w], worker_reservations_[w] and
  // leaves_[w] are touched only by worker w's job between submit and join;
  // worker_status_ is written at join time.
  std::vector<std::future<Status>> futures_;
  std::vector<std::vector<core::AnnotatedBatch>> collected_;
  std::vector<Status> worker_status_;
  std::vector<std::unique_ptr<MemoryReservation>> worker_reservations_;

  std::vector<core::AnnotatedBatch> batches_;  // Morsel order after Open.
  size_t batch_cursor_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_PARALLEL_H_
