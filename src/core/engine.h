// Engine: the public facade of InsightNotes. Wires together the storage
// substrate, catalog, annotation store, summary manager, query execution,
// QID registry and the zoom-in cache. Typical flow:
//
//   Engine engine;
//   engine.Init();
//   engine.CreateTable("birds", schema);
//   engine.RegisterInstance(SummaryInstance::MakeClassifier(...));
//   engine.LinkInstance("ClassBird1", "birds");
//   engine.Annotate({.table = "birds", .row = 0, .body = "eating stonewort"});
//   auto result = engine.Execute(std::move(plan));       // QID assigned.
//   auto raw = engine.ZoomIn({.qid = result->qid, ...}); // Raw annotations.

#ifndef INSIGHTNOTES_CORE_ENGINE_H_
#define INSIGHTNOTES_CORE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "annotation/annotation_store.h"
#include "annotation/wal_records.h"
#include "common/result.h"
#include "core/engine_snapshot.h"
#include "core/rco_cache.h"
#include "core/summary_manager.h"
#include "core/zoom_in.h"
#include "exec/operator.h"
#include "rel/btree.h"
#include "rel/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/io_retry.h"
#include "storage/wal_segments.h"

namespace insightnotes::core {

struct EngineOptions {
  std::string db_path;            // "" = in-memory database file.
  size_t buffer_pool_pages = 1024;
  CachePolicy cache_policy = CachePolicy::kRco;
  size_t cache_budget_bytes = 4 << 20;
  RcoWeights rco_weights;
  /// Reopen an existing database file instead of truncating it: Init audits
  /// the page file's checksums, then rebuilds the store by replaying the
  /// segmented write-ahead log rooted at `db_path + ".wal"` (see
  /// Engine::recovery()).
  bool open_existing = false;
  /// Backoff schedule the buffer pool applies to transient disk errors.
  storage::IoRetryPolicy io_retry;
  /// Test seam: a caller-supplied disk (e.g. a FaultInjectingDiskManager)
  /// to use instead of a plain DiskManager. Must not be open yet.
  std::shared_ptr<storage::DiskManager> disk;
  /// Test seam like `disk`, but for the index file (`db_path + ".idx"`).
  std::shared_ptr<storage::DiskManager> index_disk;
  /// Clamp on persistent B+-tree node fanout (0 = use the page capacity);
  /// tests shrink it to force deep trees on tiny data.
  size_t index_max_node_entries = 0;
  /// Buffer-pool frames for the index file (0 = same as buffer_pool_pages).
  size_t index_pool_pages = 0;
  /// Compact the WAL in the background: each checkpoint schedules an
  /// incremental pass that retires the mostly-dead sealed segments (see
  /// storage::SegmentedWal::CompactOnce), bounding log growth across
  /// checkpoint/reopen cycles without stalling ingest.
  bool compact_wal_on_checkpoint = true;
  /// Size threshold at which the active WAL segment is sealed and a fresh
  /// one opened (between mutations).
  uint64_t wal_segment_bytes = 1 << 20;
  /// Minimum dead-record fraction before a sealed segment is compacted.
  double wal_compact_min_dead_ratio = 0.25;
  /// Restart parallelism: WAL replay on reopen and the re-summarization
  /// LinkInstance runs over a table's existing annotations. 0 = one task
  /// per hardware thread, 1 = the exact serial paths, N > 1 = N pool
  /// workers (replay chains; row shards of the summary fold). Any setting
  /// rebuilds the identical store state and summary objects.
  size_t recovery_threads = 0;
};

/// What background WAL compaction has done over this engine's life.
struct WalCompactionStats {
  uint64_t compactions = 0;        // Successful segment-rewrite swaps.
  uint64_t records_written = 0;    // Live records carried into fresh segments.
  uint64_t records_dropped = 0;    // Proven-dead records eliminated.
  uint64_t segments_retired = 0;   // Old segment files removed.
  uint64_t failures = 0;           // Failed passes (the candidate is retried).
};

/// What Init did when reopening an existing database file.
struct RecoveryReport {
  bool performed = false;           // False for fresh/in-memory databases.
  uint64_t wal_records_replayed = 0;  // Mutation records only (no markers).
  uint64_t wal_bytes_truncated = 0;  // Torn WAL tail cut off before appends.
  uint32_t pages_scanned = 0;        // Pages audited in the old page file.
  uint32_t corrupt_pages = 0;        // Pages whose checksum failed the audit.
  uint64_t checkpoints_replayed = 0;  // kCheckpoint markers seen (and verified).
  // Mutation records decoded after the last checkpoint marker (the work a
  // checkpoint-aware replay would actually redo).
  uint64_t records_since_checkpoint = 0;
  uint64_t replay_chains = 0;   // Independent chains replay partitioned into.
  size_t replay_threads = 1;    // Parallelism replay actually used.
  // Persistent indexes adopted from the latest WAL index checkpoint —
  // recovery never rebuilds an index from a table scan, it reattaches the
  // committed roots (trees surface on their tables at CreateTable).
  uint64_t indexes_recovered = 0;
  uint64_t index_checkpoints_replayed = 0;
};

/// One emitted tuple as seen by an operator — the demo's under-the-hood log.
struct TraceEvent {
  std::string op;         // Operator name, e.g. "HashJoin(r.a = s.x)".
  std::string tuple;      // Rendered data values.
  std::string summaries;  // Rendered summary objects.
};

struct QueryResult {
  QueryId qid = 0;
  rel::Schema schema;
  std::vector<AnnotatedTuple> rows;
  double execute_seconds = 0.0;
  uint64_t epoch = 0;  // Epoch the query ran against (0 = live reads).
};

/// Per-call knobs of Engine::Execute (concurrent sessions use all three).
struct ExecuteOptions {
  /// 0 = assign from the engine's global counter; non-zero = the caller
  /// (a session with its own QID namespace) picked the id.
  QueryId qid = 0;
  /// Epoch to execute against; null pins the current epoch at entry.
  ReadSnapshot snapshot;
  /// Register the result for zoom-in (cache insert + retained plan). Bulk
  /// benchmark/fuzz readers pass false so the registry stays bounded.
  bool retain = true;
  /// Per-operator tuple flow recording (Figure 2 walk-through).
  std::vector<TraceEvent>* trace = nullptr;
};

struct AnnotateSpec {
  std::string table;
  rel::RowId row = rel::kInvalidRowId;
  std::vector<size_t> columns;  // Empty = whole row.
  std::string body;
  std::string author = "anonymous";
  ann::AnnotationKind kind = ann::AnnotationKind::kComment;
  std::string title;
  int64_t timestamp = 0;
};

/// Options of the batched annotation-ingest facade.
struct AnnotateBatchOptions {
  /// Ingest shards/workers. 1 (the default) runs the exact serial path;
  /// N > 1 shards summary maintenance by target row across a thread pool.
  /// Either way the maintained summary objects are byte-identical to
  /// serial ingest of the same specs (see DESIGN.md "Concurrency model").
  size_t num_threads = 1;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens the storage substrate. With `options.open_existing` and a
  /// file-backed `db_path`, an existing database is recovered: the page
  /// file's checksums are audited, the file is parked at
  /// `db_path + ".recovering"`, and the raw-annotation store is rebuilt
  /// by replaying the WAL (the page file is a rebuildable cache of
  /// annotation bodies; the log is the source of truth). The parked copy
  /// is deleted once replay succeeds and restored if Init fails first, so
  /// a failed recovery never destroys the pre-recovery data. Summary
  /// instances,
  /// links and the catalog are configuration — re-register and re-link them
  /// after Init; Link() re-summarizes the recovered annotations.
  Status Init();

  /// What recovery did during Init (all-zero unless open_existing hit an
  /// existing file).
  const RecoveryReport& recovery() const { return recovery_; }

  /// True after a WAL-committed mutation failed to apply to the store: the
  /// log is ahead of memory, so Annotate/AnnotateBatch/Attach/Archive are
  /// refused (a later record would reuse the unapplied record's dense id
  /// and make replay diverge). Reads still serve the pre-failure state;
  /// reopen with open_existing to replay the log and resume.
  bool requires_recovery() const { return !recovery_required_.ok(); }

  /// Flushes dirty pages, fsyncs the page file, syncs the WAL, rotates the
  /// active segment if it crossed the size threshold, and appends a
  /// kCheckpoint marker recording the durable annotation count. With
  /// `options.compact_wal_on_checkpoint` it then *schedules* an incremental
  /// compaction pass on the background compactor thread and returns without
  /// waiting — ingest continues while mostly-dead sealed segments are
  /// rewritten (WaitForWalCompaction blocks on the pass for tests and
  /// benches). A failed pass leaves the segment list unchanged
  /// (wal_compaction().failures counts it; the next pass retries the same
  /// candidate). Called best-effort by the destructor; call it explicitly
  /// at batch boundaries for a durability point. Replay verifies each
  /// marker and reports how many records follow the last one
  /// (RecoveryReport) — see "Durability & failure model" in DESIGN.md.
  Status Checkpoint();

  /// Blocks until every compaction pass scheduled so far has finished.
  void WaitForWalCompaction();

  /// What background WAL compaction has done so far (snapshot; the
  /// compactor thread updates it concurrently).
  WalCompactionStats wal_compaction() const;

  /// Rebuilds every summary row marked stale by a degraded summarizer
  /// failure (see SummaryManager::RepairStale). Returns rows repaired.
  Result<size_t> RepairStaleSummaries();

  // --- Schema & data -------------------------------------------------------
  Result<rel::Table*> CreateTable(const std::string& name, rel::Schema schema);
  Result<rel::RowId> Insert(const std::string& table, rel::Tuple tuple);

  // --- Statistics & indexes --------------------------------------------------
  /// ANALYZE <table>: one scan collecting per-column distributions (NDV,
  /// min/max, equi-depth histogram, null fraction), the live-annotation
  /// count distribution, and per-instance summary density; installs the
  /// snapshot on the table for the cost-based optimizer. Returns the rows
  /// analyzed. Stats are advisory — plans stay correct (just differently
  /// shaped) when they go stale; re-run ANALYZE after bulk changes.
  Result<uint64_t> Analyze(const std::string& table);
  /// CREATE INDEX ON <table>(<column>): builds (or rebuilds) the ordered
  /// secondary index the optimizer's index-backed access paths probe.
  Status CreateIndex(const std::string& table, const std::string& column);

  // --- Annotations ----------------------------------------------------------
  /// Adds an annotation and incrementally maintains affected summaries.
  Result<ann::AnnotationId> Annotate(const AnnotateSpec& spec);
  /// Batched ingest: validates every spec up front, appends the annotations
  /// to the store in order (ids are assigned exactly as N Annotate calls
  /// would), then folds them into the maintained summaries — serially for
  /// `options.num_threads == 1`, sharded by target row otherwise. Returns
  /// the assigned ids in spec order. On a mid-batch maintenance error the
  /// stored annotations remain; affected rows can be repaired with
  /// SummaryManager::RebuildRow.
  Result<std::vector<ann::AnnotationId>> AnnotateBatch(
      std::span<const AnnotateSpec> specs, const AnnotateBatchOptions& options = {});
  /// Attaches an existing annotation to another region (shared annotations).
  Status AttachAnnotation(ann::AnnotationId id, const std::string& table,
                          rel::RowId row, std::vector<size_t> columns = {});
  /// Curation: archive + remove the annotation's effect from summaries.
  Status ArchiveAnnotation(ann::AnnotationId id);

  // --- Summary instances ----------------------------------------------------
  Status RegisterInstance(std::unique_ptr<SummaryInstance> instance);
  Status LinkInstance(const std::string& instance, const std::string& table);
  Status UnlinkInstance(const std::string& instance, const std::string& table);

  // --- Snapshot isolation ----------------------------------------------------
  /// Pins the currently published epoch: one acquire-load, no locks. The
  /// returned handle keeps that epoch's row states, summary versions and
  /// archived bitmap alive until released; mutators never touch it. Refused
  /// (without disturbing already-pinned readers) once the engine entered the
  /// recovery-required state.
  Result<ReadSnapshot> PinSnapshot() const;

  /// Epoch of the currently published snapshot (0 before Init).
  uint64_t CurrentEpoch() const;

  /// Epochs fully retired so far: published, superseded, and dropped by
  /// their last reader. The tests' leak check for epoch lifetime.
  uint64_t RetiredEpochs() const {
    return epochs_retired_->load(std::memory_order_acquire);
  }

  /// Allocates a QID namespace for one SqlSession. Namespace 0 (the first)
  /// is the legacy single-session namespace backed by the engine's global
  /// counter; later sessions derive QIDs as (namespace << 48) | local.
  uint64_t NewSessionNamespace() {
    return next_session_ns_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Query execution ------------------------------------------------------
  /// Runs `plan` to completion, assigns a QID, registers the result in the
  /// zoom-in cache, and retains the plan for cache-miss re-execution. With
  /// `trace` non-null, per-operator tuple flow is recorded (Figure 2
  /// walk-through / demo feature 3). The query executes against one pinned
  /// epoch (see ExecuteOptions::snapshot), so concurrent AnnotateBatch
  /// ingest never bleeds into a running result.
  Result<QueryResult> Execute(std::unique_ptr<exec::Operator> plan,
                              std::vector<TraceEvent>* trace = nullptr);

  /// Execute with explicit per-call options (sessions, benches, fuzz).
  Result<QueryResult> Execute(std::unique_ptr<exec::Operator> plan,
                              ExecuteOptions options);

  /// Builds a summary-aware scan over `table`.
  Result<std::unique_ptr<exec::Operator>> MakeScan(const std::string& table,
                                                   const std::string& alias = "",
                                                   bool with_summaries = true);

  // --- Zoom-in ---------------------------------------------------------------
  /// Resolves a ZoomIn command: serves the referenced result from the cache
  /// or transparently re-executes its retained plan, then fetches the raw
  /// annotations behind the requested summary component.
  Result<ZoomInResult> ZoomIn(const ZoomInRequest& request);

  /// Output schema of a previously executed query (for binding ZoomIn WHERE
  /// predicates against the result).
  Result<rel::Schema> SchemaOf(QueryId qid) const;

  /// Returns the query-execution pool with `num_threads` workers, building
  /// it on first use. Used by the planner's parallel section
  /// (exec::GatherOperator). Pools are cached per size and never destroyed
  /// while the engine lives, so plans retained for zoom-in re-execution
  /// keep valid pool pointers even as other sessions request different
  /// parallelism degrees.
  ThreadPool* ExecPool(size_t num_threads);

  // --- Component access (benches, tests, shell) ------------------------------
  rel::Catalog* catalog() { return catalog_.get(); }
  rel::BTreeStore* index_store() { return index_store_.get(); }
  storage::BufferPool* index_pool() { return index_pool_.get(); }
  ann::AnnotationStore* annotations() { return store_.get(); }
  SummaryManager* summaries() { return manager_.get(); }
  ZoomInCache* cache() { return cache_.get(); }
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::DiskManager* disk() { return disk_.get(); }
  storage::SegmentedWal* wal() { return wal_.get(); }

 private:
  struct StoredQuery {
    std::unique_ptr<exec::Operator> plan;
    rel::Schema schema;
    double cost = 0.0;
    /// Epoch the stored result was computed at; re-execution re-pins it so
    /// a zoom-in after further ingest reproduces the original bytes.
    ReadSnapshot snapshot;
    /// Serializes cache-miss re-execution of this plan across sessions
    /// (operators are stateful; two threads must not Open() one plan).
    std::mutex exec_mutex;
  };

  /// The result snapshot of `qid`: the cached one, or a re-execution of the
  /// retained plan at its pinned epoch (re-admitted to the cache).
  Result<std::shared_ptr<const ResultSnapshot>> SnapshotFor(QueryId qid,
                                                            bool* from_cache);

  /// Cache key for a stored query's result (kAnyEpoch when it ran live).
  static uint64_t EpochKeyOf(const StoredQuery& stored);

  /// Visible-row bound of every catalog table right now (writer thread).
  std::unordered_map<rel::TableId, rel::RowId> CurrentBounds() const;

  /// Publishes a from-scratch snapshot of the current state (Init, Link/
  /// Unlink, stale repair). Writer mutex must be held.
  void PublishFull();

  /// Publishes the next epoch re-reading only `dirty` rows. Writer mutex
  /// must be held.
  void PublishDelta(const std::vector<EngineSnapshot::RowKey>& dirty,
                    const std::vector<ann::AnnotationId>& newly_archived = {});

  /// Validates an annotate spec against the catalog (table, row liveness,
  /// column range) and returns the target table.
  Result<rel::Table*> ValidateAnnotateSpec(const AnnotateSpec& spec);

  /// Lazily (re)builds the ingest pool with `num_threads` workers.
  ThreadPool* EnsureIngestPool(size_t num_threads);

  /// Init minus the failure cleanup: Init() restores the parked page file
  /// if this returns an error after parking it.
  Status InitStorage();

  /// Opens the index file and builds the shared B+-tree allocator. With a
  /// valid index checkpoint replayed from the WAL the existing file is
  /// adopted (committed trees park in pending_indexes_ until their tables
  /// are re-created); otherwise the file is truncated and every index
  /// starts over. Runs inside InitStorage, after WAL replay.
  Status InitIndexStorage(bool adopt, const ann::WalIndexCheckpointRecord& checkpoint);

  /// The index-commit point: flushes + fsyncs the index file, appends a
  /// WalIndexCheckpointRecord snapshotting every persistent index root and
  /// the allocator state, then seals the shadow-paging epoch. Skipped (OK)
  /// while a broken index could commit a half-mutated tree — the previous
  /// committed checkpoint simply stays live. Writer mutex must be held.
  Status CommitIndexCheckpoint();

  /// Best-effort undo of a failed recovery: tears the half-built storage
  /// stack down and moves the parked pre-recovery page file back to
  /// `options_.db_path`.
  void RestoreParkedPageFile();

  /// Appends `entry` to the WAL, syncs it, and feeds the liveness tracker
  /// (no-op without a WAL). Must run before the mutation it describes
  /// touches the store.
  Status LogWalEntry(const ann::WalEntry& entry);

  /// Rotates the active WAL segment when it crossed the size threshold.
  /// Must run before a mutation captures its rollback mark (rotation moves
  /// the append position to a fresh segment, invalidating older marks).
  Status MaybeRotateWal();

  /// OK while WAL-logged mutations are accepted; the recovery-required
  /// error otherwise (see requires_recovery()).
  Status CheckMutable() const;

  /// Enters the recovery-required state after `cause` prevented a
  /// WAL-committed record from applying to the store.
  void MarkRecoveryRequired(const Status& cause);

  /// The active-segment append position to pass to RewindWal (default-
  /// constructed without a WAL).
  Result<storage::SegmentedWal::Mark> WalMark();

  /// Rolls unacknowledged record bytes at or past `mark` back out of the
  /// WAL. Best-effort: on failure the WAL enters its failed state and
  /// refuses further appends, so the stray record can never be followed by
  /// a diverging one.
  void RewindWal(const storage::SegmentedWal::Mark& mark);

  /// Fsyncs the directory holding `path` through the DiskManager seam
  /// (falls back to the plain filesystem sync when no disk exists yet).
  Status FsyncParentDir(const std::string& path);

  /// Queues one background compaction pass (starts the compactor thread on
  /// first use).
  void ScheduleWalCompaction();

  /// Drains scheduled passes, then joins the compactor thread.
  void StopWalCompactor();

  void WalCompactorLoop();

  EngineOptions options_;
  std::shared_ptr<storage::DiskManager> disk_;
  std::unique_ptr<storage::SegmentedWal> wal_;
  /// Observes every acknowledged WAL record and forwards superseded
  /// positions to the log's per-segment dead-record accounting.
  ann::WalLivenessTracker tracker_;
  RecoveryReport recovery_;
  Status recovery_required_;  // Non-OK: mutations refused, see requires_recovery().
  // Non-empty while the pre-recovery page file sits parked at
  // `db_path + ".recovering"` (from after the audit until replay succeeds).
  std::string parked_page_file_;
  std::unique_ptr<storage::BufferPool> pool_;
  // Index storage: its own page file (db_path + ".idx"), pool and shared
  // B+-tree allocator. Declared before catalog_ so the tables' trees are
  // destroyed before the store/pool they point into.
  std::shared_ptr<storage::DiskManager> index_disk_;
  std::unique_ptr<storage::BufferPool> index_pool_;
  std::unique_ptr<rel::BTreeStore> index_store_;
  // Committed indexes replayed from the WAL whose tables the caller has not
  // re-created yet: table name -> column -> committed tree state.
  std::map<std::string, std::map<size_t, rel::BTreeMeta>> pending_indexes_;
  std::unique_ptr<rel::Catalog> catalog_;
  std::unique_ptr<ann::AnnotationStore> store_;
  std::unique_ptr<SummaryManager> manager_;
  std::unique_ptr<ZoomInCache> cache_;
  std::unique_ptr<ThreadPool> ingest_pool_;  // Lazily sized by AnnotateBatch.
  // Exec pools cached per worker count (see ExecPool()).
  std::mutex exec_pools_mutex_;
  std::map<size_t, std::unique_ptr<ThreadPool>> exec_pools_;
  // Query registry: guarded by queries_mutex_ so concurrent sessions can
  // register/look up results; entries are shared_ptr so a lookup can leave
  // the lock before re-executing.
  mutable std::mutex queries_mutex_;
  std::unordered_map<QueryId, std::shared_ptr<StoredQuery>> queries_;
  // Atomic: sessions in namespace 0 assign QIDs concurrently.
  std::atomic<QueryId> next_qid_{100};  // Figure 3 shows QIDs starting at 101.
  std::atomic<uint64_t> next_session_ns_{0};

  // --- Epoch publication (single writer, many readers) ----------------------
  // Serializes every mutator (Annotate/AnnotateBatch/Attach/Archive/
  // Checkpoint/DDL/Analyze/Link). Readers never take it.
  std::mutex writer_mutex_;
  // The published epoch; readers pin it with one acquire-load.
  std::atomic<std::shared_ptr<const EngineSnapshot>> published_;
  uint64_t epoch_counter_ = 0;  // Writer-mutex-guarded.
  // Outlives any pinned snapshot (snapshots hold a shared_ptr to it), so a
  // reader draining after engine teardown still retires cleanly.
  std::shared_ptr<std::atomic<uint64_t>> epochs_retired_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  // Mirrors requires_recovery() for lock-free PinSnapshot refusal.
  std::atomic<bool> poisoned_{false};

  // Background WAL compactor: Checkpoint schedules passes; the thread
  // drains them. Guarded by compact_mutex_ except the stats, which have
  // their own lock so wal_compaction() never blocks behind a pass.
  std::thread wal_compactor_;
  std::mutex compact_mutex_;
  std::condition_variable compact_cv_;
  bool compact_stop_ = false;
  uint64_t compact_scheduled_ = 0;
  uint64_t compact_completed_ = 0;
  mutable std::mutex wal_compaction_mutex_;
  WalCompactionStats wal_compaction_;
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_ENGINE_H_
