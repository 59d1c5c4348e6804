// Building blocks shared by the three workloads: the failure-accounting
// recorder, a file-backed ornithology database that can be created and
// reopened, the seeded annotation and query generators, and a client that
// issues SELECT / ZOOMIN statements either through sql::SqlSession
// (untraced) or through the same public calls SqlSession makes, wrapped in
// spans (traced).

#ifndef E2EBENCH_SCENARIO_H_
#define E2EBENCH_SCENARIO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "sql/session.h"
#include "trace.h"
#include "workload/annotation_gen.h"
#include "workload/bird_data.h"

namespace e2e {

namespace in = insightnotes;

inline constexpr char kTable[] = "birds";
// The bird table is fixed base data, like the AKN table the paper uses:
// one row per species. --seed varies the annotation stream, the queries
// and the zoom-in targets.
inline constexpr size_t kSpecies = 1024;
inline constexpr uint64_t kSpeciesSeed = 42;
inline constexpr char kInstances[][16] = {"ClassBird1", "ClassBird2", "SimCluster",
                                          "TextSummary1"};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;  // Scratch directory for database files.
};

/// Counts every attempted operation, records each success's latency in its
/// series and each failure as a +infinity sample (it missed every latency
/// limit), and collects output-check failures. Thread-safe.
class Recorder {
 public:
  void Record(const std::string& series, const in::Status& status, double ms);
  /// A sample that is not an operation of its own (e.g. a derived time).
  void Sample(const std::string& series, double value);
  void CheckFailed(const std::string& what);

  std::vector<double> Series(const std::string& series) const;
  uint64_t attempted() const;
  uint64_t failed() const;
  bool correct() const;
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> series_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> errors_;
};

inline const in::Status& StatusOf(const in::Status& status) { return status; }
template <typename T>
const in::Status& StatusOf(const in::Result<T>& result) {
  return result.status();
}

/// Runs `fn` (returning Status or Result) inside a span named `span`, times
/// it, and records the outcome in `series`.
template <typename F>
auto TimedOp(Recorder* recorder, Tracer* tracer, const std::string& series,
             const std::string& span, F&& fn) {
  int64_t start = NowNs();
  auto out = [&] {
    ScopedSpan scoped(tracer, span);
    return fn();
  }();
  recorder->Record(series, StatusOf(out), static_cast<double>(NowNs() - start) / 1e6);
  return out;
}

/// A file-backed ornithology database: the bird table (one row per
/// species), the four summary instances of the paper's Section-3 scenario,
/// and the annotations ingested so far. Reopen() is the restart path: close
/// the engine, Init(open_existing) to replay the WAL, re-create the table
/// and instances, and re-link (a full re-summarization per instance).
class Database {
 public:
  Database(std::string dir, in::core::EngineOptions options);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  in::Status Create(Recorder* recorder, Tracer* tracer);
  in::Status Reopen(Recorder* recorder, Tracer* tracer);
  /// Destroys the engine and deletes the database files.
  void Destroy();

  in::core::Engine* engine() const { return engine_.get(); }
  const std::vector<in::workload::BirdSpecies>& species() const { return species_; }
  size_t num_columns() const;
  /// Bytes on disk: page file, WAL segments and manifest, index file.
  uint64_t FileBytes() const;

 private:
  in::Status BuildCatalog(Recorder* recorder, Tracer* tracer, const std::string& phase);

  std::string dir_;
  in::core::EngineOptions options_;
  std::vector<in::workload::BirdSpecies> species_;
  std::unique_ptr<in::core::Engine> engine_;
};

/// Seeded stream of annotation specs: Zipf-skewed target rows, 2% large
/// documents and 40% cell-level (single-column) annotations.
class SpecStream {
 public:
  SpecStream(uint64_t seed, const Database* db);
  std::vector<in::core::AnnotateSpec> Next(size_t count);

 private:
  const Database* db_;
  in::Random rng_;
  in::workload::AnnotationGenerator gen_;
};

/// Closed-loop ingest client: AnnotateBatch, then attach ~5% of the new
/// annotations to a second row and archive ~1%, and checkpoint every
/// `checkpoint_every` batches (each checkpoint schedules background WAL
/// compaction). Each checkpoint period's throughput (annotations
/// acknowledged over time in ingest calls, the checkpoint included) is
/// recorded in "<series>.rate".
class Ingestor {
 public:
  Ingestor(Database* db, Recorder* recorder, uint64_t seed, size_t num_threads,
           size_t checkpoint_every);
  /// Ingests `specs` as one batch plus its attach/archive follow-ups (and
  /// the periodic checkpoint). The AnnotateBatch latency is recorded in
  /// `series`.
  void Batch(const std::vector<in::core::AnnotateSpec>& specs, Tracer* tracer,
             const std::string& series);

  uint64_t acknowledged() const { return acknowledged_; }
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  Database* db_;
  Recorder* recorder_;
  in::Random rng_;
  size_t num_threads_;
  size_t checkpoint_every_;
  uint64_t batches_ = 0;
  uint64_t acknowledged_ = 0;
  uint64_t user_bytes_ = 0;
  // The current checkpoint period: annotations acknowledged and time spent
  // inside engine calls (batch, attach, archive, checkpoint).
  uint64_t period_acknowledged_ = 0;
  int64_t period_busy_ns_ = 0;
};

enum class QueryClass { kScan, kSumFilter, kJoin, kGroup, kTopK, kPoint };
inline constexpr QueryClass kQueryClasses[] = {QueryClass::kScan,  QueryClass::kSumFilter,
                                               QueryClass::kJoin,  QueryClass::kGroup,
                                               QueryClass::kTopK,  QueryClass::kPoint};
std::string QueryClassName(QueryClass klass);

/// Seeded SELECT statements of each class. Parameters that change how much
/// work a query does (thresholds, labels, LIMIT) rotate through fixed sets,
/// so every run sees the same mix; the seed picks where each rotation
/// starts, the join windows' offset and the point-lookup keys. Summary
/// filters keep rows with at least `summary_threshold` annotations of one
/// label.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed, size_t summary_threshold = 3);
  std::string Next(QueryClass klass);

 private:
  in::Random rng_;
  size_t summary_threshold_;
  uint64_t join_offset_;
  uint64_t counters_[std::size(kQueryClasses)];
};

/// One analyst session. Untraced statements go through SqlSession::Execute;
/// traced ones make the same public calls (Parse -> PlanSelect ->
/// PinSnapshot -> Engine::Execute, and Parse -> Engine::ZoomIn) inside spans.
/// Latencies land in "<prefix>query", "<prefix>query.<class>",
/// "<prefix>zoomin" and "<prefix>zoomin.hit"/"<prefix>zoomin.miss"; traced
/// statements also in the ".traced" variants of the per-class series.
class Analyst {
 public:
  /// `prefix` names the series this analyst records into ("" for the
  /// measured phase, "check." for the restart checks).
  Analyst(in::core::Engine* engine, Recorder* recorder, Tracer* tracer,
          std::string prefix = "");

  in::Result<in::core::QueryResult> Select(const std::string& sql, QueryClass klass,
                                           bool traced);
  in::Result<in::core::ZoomInResult> ZoomIn(in::core::QueryId qid,
                                            const std::string& instance, size_t index,
                                            bool traced);

  /// Runs `sql` twice against one pinned epoch: once as the session would
  /// (optimized, parallel) and once serially with the optimizer off. The
  /// two renderings must be byte-identical. Not timed.
  void CheckSerialReplay(const std::string& sql, const std::string& what);

 private:
  in::core::Engine* engine_;
  Recorder* recorder_;
  Tracer* tracer_;
  std::string prefix_;
  in::sql::SqlSession session_;
  std::shared_ptr<in::exec::QueryContext> context_;
};

/// The rendering of a result with its QID blanked (QIDs differ between a
/// statement and its replay).
std::string Render(in::core::QueryResult* result);
/// Annotation ids per zoom-in row, as comparable text.
std::string ZoomInIds(const in::core::ZoomInResult& zoom);
/// Checks zoom-in completeness: each returned row carries exactly as many
/// raw annotations as its classifier component counts in `result`.
bool ZoomInComplete(const in::core::QueryResult& result,
                    const in::core::ZoomInResult& zoom, const std::string& instance,
                    size_t index);

/// Process high-water resident set size in MiB.
double PeakRssMb();

}  // namespace e2e

#endif  // E2EBENCH_SCENARIO_H_
