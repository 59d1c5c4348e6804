#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "stats.h"

namespace e2e {

namespace {

using in::Status;
using in::core::Engine;

constexpr size_t kBatchSize = 64;        // Specs per AnnotateBatch call.
constexpr size_t kCheckpointEvery = 32;  // Ingest batches per checkpoint.
// Every measured phase does a fixed amount of work per requested second,
// sized from the rates measured on a 4-core host, rather than running
// until a deadline: the engine retains every SELECT's plan and pinned
// epoch for zoom-in, so with a deadline a faster read path would retain
// more (a higher peak RSS), and archive_cold's zoom-in targets would be
// drawn from more results (fewer cache hits).
// ingest: batches in the measured stream; the database every reopen cycle
// recovers has the same size whatever the ingest speed.
constexpr size_t kIngestBatchesPerSecond = 48;
// explore_hot: rounds of the six-class mix per reader (~35 SELECTs/s over
// three readers).
constexpr size_t kReaderRoundsPerSecond = 2;
// archive_cold: rounds of one query and one zoom-in (~8 SELECTs/s).
constexpr size_t kArchiveRoundsPerSecond = 10;
// explore_hot: three reader sessions plus one open-loop writer issuing
// kWriterBatch annotations every kWriterPeriodMs (800 annotations/s).
constexpr size_t kReaders = 3;
constexpr size_t kWriterBatch = 4;
constexpr int64_t kWriterPeriodMs = 5;
constexpr size_t kWriterCheckpointEvery = 200;
constexpr size_t kSharedZoomEvery = 2;   // Reader rounds between shared zoom-ins.
constexpr size_t kReplayCheckEvery = 8;  // Reader rounds between replay checks.
// archive_cold's summary filter keeps only rows with this many annotations
// of one ClassBird1 label (the Zipf head).
constexpr size_t kArchiveSummaryThreshold = 20;
// archive_cold runs at least this many rounds, however short --seconds,
// so its query and zoom-in p90s always have the 100 samples they need.
constexpr size_t kArchiveMinRounds = 150;

size_t Nproc() { return std::max<size_t>(1, std::thread::hardware_concurrency()); }

struct Profile {
  size_t setup_annotations = 0;  // Pre-ingested during set-up.
  // Set-ups per run: the one that builds the measured database, then the
  // rest into a spare directory, spread over the restart cycles so that a
  // short stall of the host slows at most one of them. At most
  // reopen_cycles + 1.
  size_t setup_repeats = 4;
  size_t reopen_cycles = 5;
  // Rounds of the six-class query mix in the restart check set; every
  // SELECT is followed by a ZOOMIN into its result.
  size_t check_rounds = 1;
  in::core::EngineOptions engine;
};

Profile ProfileFor(const std::string& workload) {
  Profile profile;
  if (workload == "ingest") {
    profile.setup_annotations = 4096;
    profile.setup_repeats = 6;  // A short set-up: more repetitions steady its median.
    // On ingest the check statements also supply the read latencies, so
    // there are enough of them for a p90 (144 over 6 passes), and the cache
    // is small enough that every result but a point lookup's is re-executed
    // on zoom-in (a larger one splits the zoom-ins between hits and misses
    // near the median).
    profile.check_rounds = 4;
    profile.engine.cache_budget_bytes = 256 << 10;
  } else if (workload == "explore_hot") {
    profile.setup_annotations = kSpecies * 20;
    profile.setup_repeats = 5;
    profile.reopen_cycles = 9;  // A short reopen: more cycles steady its median.
  } else {  // archive_cold
    // An eighth of the default pool and a quarter of the default cache, so
    // a 1024-species database is ~5x the pool and its retained results
    // many times the cache.
    profile.setup_annotations = kSpecies * 30;
    profile.reopen_cycles = 3;  // A long reopen, steady over three cycles.
    profile.engine.buffer_pool_pages = 128;
    profile.engine.cache_budget_bytes = 1 << 20;
  }
  return profile;
}

/// Engine counters read from outside around the measured phase.
struct Counters {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t index_hits = 0;
  uint64_t index_misses = 0;
  in::core::CacheStats cache;
  uint64_t epoch = 0;
  uint64_t retired = 0;
};

Counters ReadCounters(Engine* engine) {
  Counters c;
  c.pool_hits = engine->buffer_pool()->hits();
  c.pool_misses = engine->buffer_pool()->misses();
  c.disk_reads = engine->disk()->num_reads();
  c.disk_writes = engine->disk()->num_writes();
  if (engine->index_pool() != nullptr) {
    c.index_hits = engine->index_pool()->hits();
    c.index_misses = engine->index_pool()->misses();
  }
  c.cache = engine->cache()->stats();
  c.epoch = engine->CurrentEpoch();
  c.retired = engine->RetiredEpochs();
  return c;
}

/// Hit share of `hits + misses`; 1 when nothing was looked up (nothing missed).
double HitRatio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 1.0
                            : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

/// Every zoom-in on one (QID, component) must return the same annotation
/// ids, whether it was served from the cache or by re-executing the plan.
class ZoomLedger {
 public:
  void Observe(in::core::QueryId qid, size_t index, const in::core::ZoomInResult& zoom,
               Recorder* recorder) {
    std::string ids = ZoomInIds(zoom);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = first_.try_emplace({qid, index}, std::move(ids));
    if (!inserted && it->second != ZoomInIds(zoom)) {
      recorder->CheckFailed("zoom-in on QID " + std::to_string(qid) + " served " +
                            (zoom.served_from_cache ? "from cache" : "by re-execution") +
                            " returned other annotation ids than its first zoom-in");
    }
  }

 private:
  std::mutex mutex_;
  std::map<std::pair<in::core::QueryId, size_t>, std::string> first_;
};

class Scenario {
 public:
  Scenario(const RunOptions& options, Recorder* recorder)
      : options_(options),
        recorder_(recorder),
        profile_(ProfileFor(options.workload)),
        db_(options.dir + "/db", profile_.engine),
        spare_(options.dir + "/spare", profile_.engine) {
    for (size_t i = 0; i < kReaders + 2; ++i) {
      tracers_.push_back(std::make_unique<Tracer>(static_cast<uint32_t>(i)));
    }
  }

  /// Leaves `metrics` empty when set-up failed.
  void Run(std::vector<Metric>* metrics) {
    if (!SetUp(&db_)) return;
    Engine* engine = db_.engine();
    std::printf("# sizes: species=%zu annotations=%llu page_file_pages=%u pool_pages=%zu "
                "cache_budget_bytes=%zu\n",
                kSpecies, static_cast<unsigned long long>(acknowledged_),
                engine->disk()->num_pages(), profile_.engine.buffer_pool_pages,
                profile_.engine.cache_budget_bytes);
    rss_marks_ = " setup=" + std::to_string(static_cast<int>(PeakRssMb()));
    before_ = ReadCounters(engine);
    if (options_.workload == "ingest") {
      MeasureIngest();
    } else if (options_.workload == "explore_hot") {
      MeasureExploreHot();
    } else {
      MeasureArchiveCold();
    }
    after_ = ReadCounters(db_.engine());
    // Restart cycles rebuild the engine inside this process, which a real
    // restart would not; peak memory is taken before them.
    peak_rss_mb_ = PeakRssMb();
    rss_marks_ += " measured=" + std::to_string(static_cast<int>(peak_rss_mb_));
    Epilogue();
    std::printf("# peak_rss_mb by phase:%s\n", rss_marks_.c_str());
    if (options_.trace) {
      PerLayerMetrics(metrics);
    } else {
      EndToEndMetrics(metrics);
    }
  }

 private:
  /// Tracer of client `i`, or null in an untraced run.
  Tracer* T(size_t i) { return options_.trace ? tracers_[i].get() : nullptr; }
  /// Traced runs alternate traced and untraced rounds; the untraced ones
  /// measure what tracing costs.
  bool Traced(size_t round) const { return options_.trace && round % 2 == 1; }

  bool SetUp(Database* db);
  void MeasureIngest();
  void MeasureExploreHot();
  void MeasureArchiveCold();
  void ExploreReader(size_t reader, size_t rounds);
  void Epilogue();
  void EndToEndMetrics(std::vector<Metric>* metrics);
  void PerLayerMetrics(std::vector<Metric>* metrics);

  const RunOptions options_;
  Recorder* recorder_;
  const Profile profile_;
  Database db_;
  Database spare_;  // Target of the set-up repetitions after the first.
  std::vector<std::unique_ptr<Tracer>> tracers_;
  ZoomLedger ledger_;

  std::vector<double> setup_seconds_;
  std::vector<double> reopen_seconds_;
  // Annotations in the database and their body bytes.
  uint64_t acknowledged_ = 0;
  uint64_t user_bytes_ = 0;
  // Where the ingest metrics come from on this workload: the measured
  // stream on ingest, the writer on explore_hot, the set-up bulk loads on
  // archive_cold (which has no writer).
  std::string batch_series_ = "setup.batch";
  // Where the read metrics come from on this workload, and the wall time
  // their statements took (the readers' window; on ingest, the restart
  // check passes).
  std::string read_prefix_;
  double read_window_s_ = 0.0;
  double check_window_s_ = 0.0;
  in::core::QueryId shared_qid_ = 0;
  double peak_rss_mb_ = 0.0;
  std::string rss_marks_;  // High-water RSS after each phase (diagnostics).

  Counters before_;
  Counters after_;
  // Storage state after the measured phase (checkpointed, compaction idle).
  uint64_t db_bytes_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t wal_records_ = 0;
  size_t wal_segments_ = 0;
  in::core::WalCompactionStats compaction_;
  uint64_t annotation_count_ = 0;
  uint64_t rows_maintained_ = 0;
};

/// Builds `db` from an empty directory and records the time in
/// setup_seconds_. False when a step failed.
bool Scenario::SetUp(Database* db) {
  db->Destroy();  // Removing a previous database is not set-up time.
  Tracer* tracer = T(0);
  if (tracer != nullptr) tracer->BeginStatement();
  const uint64_t failed_before = recorder_->failed();
  int64_t start = NowNs();
  Ingestor ingestor(db, recorder_, options_.seed, Nproc(), kCheckpointEvery);
  {
    ScopedSpan root(tracer, "stmt.setup");
    if (!db->Create(recorder_, tracer).ok()) return false;
    SpecStream specs(options_.seed, db);
    for (size_t n = 0; n < profile_.setup_annotations; n += kBatchSize) {
      ingestor.Batch(specs.Next(std::min(kBatchSize, profile_.setup_annotations - n)),
                     tracer, "setup.batch");
    }
    Engine* engine = db->engine();
    TimedOp(recorder_, tracer, "checkpoint", "core.checkpoint",
            [&] { return engine->Checkpoint(); });
    engine->WaitForWalCompaction();
    TimedOp(recorder_, tracer, "setup.analyze", "rel.analyze",
            [&] { return engine->Analyze(kTable); });
    TimedOp(recorder_, tracer, "setup.create_index", "rel.create_index",
            [&] { return engine->CreateIndex(kTable, "id"); });
  }
  setup_seconds_.push_back(static_cast<double>(NowNs() - start) / 1e9);
  if (db == &db_) {
    acknowledged_ = ingestor.acknowledged();
    user_bytes_ = ingestor.user_bytes();
  }
  return recorder_->failed() == failed_before;
}

void Scenario::MeasureIngest() {
  Ingestor ingestor(&db_, recorder_, options_.seed + 7, Nproc(), kCheckpointEvery);
  SpecStream specs(options_.seed + 7, &db_);
  size_t batches = kIngestBatchesPerSecond * static_cast<size_t>(options_.seconds);
  for (size_t b = 0; b < batches; ++b) {
    bool traced = Traced(b);
    ingestor.Batch(specs.Next(kBatchSize), traced ? T(0) : nullptr,
                   traced ? "batch.traced" : "batch");
  }
  batch_series_ = "batch";
  acknowledged_ += ingestor.acknowledged();
  user_bytes_ += ingestor.user_bytes();
  read_prefix_ = "check.";
}

void Scenario::ExploreReader(size_t reader, size_t rounds) {
  Tracer* tracer = T(1 + reader);
  Analyst analyst(db_.engine(), recorder_, tracer);
  size_t zooms = 0;
  QueryGen queries(options_.seed * 7919 + reader);
  for (size_t round = 0; round < rounds; ++round) {
    bool traced = Traced(round);
    if (round % kReplayCheckEvery == kReplayCheckEvery - 1) {
      QueryClass klass = kQueryClasses[(round / kReplayCheckEvery) % std::size(kQueryClasses)];
      analyst.CheckSerialReplay(queries.Next(klass), "explore_hot");
    }
    for (QueryClass klass : kQueryClasses) {
      auto result = analyst.Select(queries.Next(klass), klass, traced);
      bool zoom = klass == QueryClass::kScan || klass == QueryClass::kSumFilter;
      if (!zoom || !result.ok()) continue;
      size_t index = zooms++ % 4;
      auto zoomed = analyst.ZoomIn(result->qid, "ClassBird1", index, traced);
      if (!zoomed.ok()) continue;
      ledger_.Observe(result->qid, index, *zoomed, recorder_);
      if (!ZoomInComplete(*result, *zoomed, "ClassBird1", index)) {
        recorder_->CheckFailed("explore_hot zoom-in incomplete on QID " +
                               std::to_string(result->qid));
      }
    }
    if (round % kSharedZoomEvery == 0) {
      auto zoomed = analyst.ZoomIn(shared_qid_, "ClassBird1", 0, traced);
      if (zoomed.ok()) ledger_.Observe(shared_qid_, 0, *zoomed, recorder_);
    }
  }
}

void Scenario::MeasureExploreHot() {
  // The QID every reader zooms into now and then (one shared cache entry).
  {
    Analyst analyst(db_.engine(), recorder_, nullptr, "setup.");
    auto shared = analyst.Select(
        "SELECT b.id, b.name FROM birds b WHERE SUMMARY_COUNT(ClassBird1, 'Disease') >= 3",
        QueryClass::kSumFilter, false);
    if (!shared.ok()) return;
    shared_qid_ = shared->qid;
  }
  // Four-annotation batches run the serial ingest path. The writer's
  // schedule spans --seconds; the readers' fixed rounds take about as long
  // on a 4-core host (past the schedule, they read without a writer).
  Ingestor ingestor(&db_, recorder_, options_.seed + 7, 1, kWriterCheckpointEvery);
  SpecStream specs(options_.seed + 7, &db_);
  const int64_t period_ns = kWriterPeriodMs * 1'000'000;
  const size_t writer_batches = static_cast<size_t>(options_.seconds) * 1000 / kWriterPeriodMs;
  const size_t rounds = kReaderRoundsPerSecond * static_cast<size_t>(options_.seconds);
  const int64_t start = NowNs();
  std::thread writer([&] {
    for (size_t b = 0; b < writer_batches; ++b) {
      auto batch = specs.Next(kWriterBatch);
      int64_t due = start + static_cast<int64_t>(b) * period_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      recorder_->Sample("writer.lag", static_cast<double>(NowNs() - due) / 1e6);
      bool traced = Traced(b);
      ingestor.Batch(batch, traced ? T(kReaders + 1) : nullptr,
                     traced ? "writer.batch.traced" : "writer.batch");
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, r, rounds] { ExploreReader(r, rounds); });
  }
  for (auto& reader : readers) reader.join();
  read_window_s_ = static_cast<double>(NowNs() - start) / 1e9;
  writer.join();
  std::printf("# writer_lag_ms: mean=%.4g over %zu batches\n",
              Mean(recorder_->Series("writer.lag")), writer_batches);
  batch_series_ = "writer.batch";
  acknowledged_ += ingestor.acknowledged();
  user_bytes_ += ingestor.user_bytes();
}

void Scenario::MeasureArchiveCold() {
  Analyst analyst(db_.engine(), recorder_, T(1));
  in::Random rng(options_.seed * 104729);
  QueryGen queries(options_.seed * 104729, kArchiveSummaryThreshold);
  // Small results only; the top-k results alone (the busiest rows, with
  // the most annotation ids) outgrow the cache after a few rounds.
  static constexpr QueryClass kMix[] = {QueryClass::kTopK, QueryClass::kPoint,
                                        QueryClass::kSumFilter, QueryClass::kJoin};
  // QIDs produced so far, by class. Each round zooms into a QID drawn
  // uniformly from those of its own query's class, so every run zooms into
  // each class equally often whatever the seed.
  std::vector<in::core::QueryId> produced[std::size(kMix)];
  const size_t rounds = std::max(kArchiveMinRounds,
                                 kArchiveRoundsPerSecond * static_cast<size_t>(options_.seconds));
  const int64_t start = NowNs();
  for (size_t round = 0; round < rounds; ++round) {
    bool traced = Traced(round / std::size(kMix));
    std::vector<in::core::QueryId>& same_class = produced[round % std::size(kMix)];
    QueryClass klass = kMix[round % std::size(kMix)];
    auto result = analyst.Select(queries.Next(klass), klass, traced);
    if (result.ok()) same_class.push_back(result->qid);
    if (same_class.empty()) continue;
    in::core::QueryId qid = same_class[rng.Uniform(same_class.size())];
    size_t index = qid % 4;
    auto zoomed = analyst.ZoomIn(qid, "ClassBird1", index, traced);
    if (zoomed.ok()) ledger_.Observe(qid, index, *zoomed, recorder_);
  }
  read_window_s_ = static_cast<double>(NowNs() - start) / 1e9;
}

void Scenario::Epilogue() {
  Engine* engine = db_.engine();
  TimedOp(recorder_, T(0), "checkpoint", "core.checkpoint",
          [&] { return engine->Checkpoint(); });
  engine->WaitForWalCompaction();
  db_bytes_ = db_.FileBytes();
  wal_bytes_ = engine->wal()->TotalBytes().value_or(0);
  wal_records_ = engine->wal()->num_appended();
  wal_segments_ = engine->wal()->num_segments();
  compaction_ = engine->wal_compaction();
  annotation_count_ = engine->annotations()->NumAnnotations();
  rows_maintained_ = engine->summaries()->NumMaintainedRows();
  if (annotation_count_ != acknowledged_) {
    recorder_->CheckFailed("store holds " + std::to_string(annotation_count_) +
                           " annotations, " + std::to_string(acknowledged_) +
                           " were acknowledged");
  }

  // The restart check set: rounds of the six-class mix, each SELECT
  // followed by a ZOOMIN into its result. It runs once before the first
  // close and again after every reopen (traced runs trace every other
  // pass).
  std::vector<QueryClass> classes;
  std::vector<std::string> statements;
  QueryGen queries(options_.seed ^ 0xC4ECC4ECULL);
  for (size_t round = 0; round < profile_.check_rounds; ++round) {
    for (QueryClass klass : kQueryClasses) {
      classes.push_back(klass);
      statements.push_back(queries.Next(klass));
    }
  }
  std::vector<std::string> rendered(statements.size());
  std::vector<std::string> zoom_ids(statements.size());
  size_t pass = 0;
  auto run_checks = [&](bool record) {
    Analyst analyst(db_.engine(), recorder_, T(0), "check.");
    bool traced = Traced(pass++);
    const int64_t pass_start = NowNs();
    for (size_t i = 0; i < statements.size(); ++i) {
      auto result = analyst.Select(statements[i], classes[i], traced);
      if (!result.ok()) continue;
      auto zoomed = analyst.ZoomIn(result->qid, "ClassBird1", i % 4, traced);
      if (!zoomed.ok()) continue;
      if (!ZoomInComplete(*result, *zoomed, "ClassBird1", i % 4)) {
        recorder_->CheckFailed("zoom-in incomplete for " + statements[i]);
      }
      std::string text = Render(&*result);
      std::string ids = ZoomInIds(*zoomed);
      if (record) {
        rendered[i] = std::move(text);
        zoom_ids[i] = std::move(ids);
      } else if (text != rendered[i] || ids != zoom_ids[i]) {
        recorder_->CheckFailed("after reopen, output differs for " + statements[i]);
      }
    }
    check_window_s_ += static_cast<double>(NowNs() - pass_start) / 1e9;
  };
  run_checks(true);

  for (size_t cycle = 0; cycle < profile_.reopen_cycles; ++cycle) {
    Tracer* tracer = T(0);
    if (tracer != nullptr) tracer->BeginStatement();
    int64_t start = NowNs();
    Status reopened = [&] {
      ScopedSpan root(tracer, "stmt.reopen");
      Status status = db_.Reopen(recorder_, tracer);
      if (!status.ok()) return status;
      // Reopen ends when the first query is answered.
      Analyst first(db_.engine(), recorder_, tracer, "reopen.");
      QueryGen point(options_.seed + cycle);
      return first.Select(point.Next(QueryClass::kPoint), QueryClass::kPoint, false).status();
    }();
    double seconds = static_cast<double>(NowNs() - start) / 1e9;
    recorder_->Record("reopen", reopened, seconds * 1e3);
    if (!reopened.ok()) return;
    reopen_seconds_.push_back(seconds);
    rss_marks_ += " reopen=" + std::to_string(static_cast<int>(PeakRssMb()));
    uint64_t recovered = db_.engine()->annotations()->NumAnnotations();
    if (recovered != acknowledged_) {
      recorder_->CheckFailed("reopen recovered " + std::to_string(recovered) +
                             " annotations, " + std::to_string(acknowledged_) +
                             " were acknowledged");
    }
    run_checks(false);
    // The set-up repetitions after the first, spread evenly over the cycles.
    const size_t spares = profile_.setup_repeats - 1;
    if ((cycle + 1) * spares / profile_.reopen_cycles > cycle * spares / profile_.reopen_cycles) {
      SetUp(&spare_);
      spare_.Destroy();
    }
  }
}

void Scenario::EndToEndMetrics(std::vector<Metric>* metrics) {
  auto add = [&](const char* name, std::optional<double> value, const char* unit) {
    metrics->push_back({name, value, unit});
  };
  auto pct = [&](const std::string& series, double p) {
    return Percentile(recorder_->Series(series), p);
  };
  auto positive = [](double value) -> std::optional<double> {
    return value > 0.0 && std::isfinite(value) ? std::optional<double>(value)
                                               : std::nullopt;
  };
  std::printf("# samples: setups=%zu batches=%zu reopens=%zu queries=%zu zoomins=%zu\n",
              setup_seconds_.size(), recorder_->Series(batch_series_).size(),
              reopen_seconds_.size(), recorder_->Series(read_prefix_ + "query").size(),
              recorder_->Series(read_prefix_ + "zoomin").size());
  auto print_all = [](const char* name, const std::vector<double>& values) {
    std::printf("# %s each:", name);
    for (double value : values) std::printf(" %.4g", value);
    std::printf("\n");
  };
  print_all("setup_s", setup_seconds_);
  print_all("reopen_s", reopen_seconds_);
  add("setup_s", positive(MedianOf(setup_seconds_)), "s");
  add("reopen_s",
      reopen_seconds_.size() == profile_.reopen_cycles ? positive(MedianOf(reopen_seconds_))
                                                       : std::nullopt,
      "s");
  std::vector<double> queries = recorder_->Series(read_prefix_ + "query");
  size_t completed = std::count_if(queries.begin(), queries.end(),
                                   [](double ms) { return std::isfinite(ms); });
  // SELECTs completed over the wall time of the statements that include
  // them (zoom-ins too): the readers' window, or on ingest the check passes.
  double query_seconds = read_prefix_ == "check." ? check_window_s_ : read_window_s_;
  add("query_per_s",
      positive(query_seconds > 0 ? static_cast<double>(completed) / query_seconds : 0.0),
      "1/s");
  add("query_p50_ms", pct(read_prefix_ + "query", 50), "ms");
  add("query_p90_ms", pct(read_prefix_ + "query", 90), "ms");
  add("zoomin_p50_ms", pct(read_prefix_ + "zoomin", 50), "ms");
  add("zoomin_p90_ms", pct(read_prefix_ + "zoomin", 90), "ms");
  add("peak_rss_mb", positive(peak_rss_mb_), "MB");
  add("db_bytes_per_user_byte",
      positive(user_bytes_ > 0 ? static_cast<double>(db_bytes_) / user_bytes_ : 0.0),
      "ratio");
}

void Scenario::PerLayerMetrics(std::vector<Metric>* metrics) {
  std::vector<const std::vector<Span>*> parts;
  for (const auto& tracer : tracers_) parts.push_back(&tracer->spans());
  std::vector<Span> spans = MergeSpans(parts);
  std::map<std::string, std::vector<double>> self_times = SelfTimesByName(spans);
  // Mean self time of the spans named `name`, in `scale` nanoseconds (0
  // when the run made no such call).
  auto span_mean = [&](const std::string& name, double scale) {
    auto it = self_times.find(name);
    return it == self_times.end() ? 0.0 : Mean(it->second) / scale;
  };
  auto series_mean = [&](const std::string& series) {
    return Mean(recorder_->Series(series));
  };
  auto add = [&](std::string name, std::optional<double> value, const char* unit) {
    metrics->push_back({std::move(name), value, unit});
  };
  constexpr double kUs = 1e3;
  constexpr double kMs = 1e6;

  add("sql.parse_us", span_mean("sql.parse", kUs), "us");
  add("sql.plan_us", span_mean("sql.plan", kUs), "us");
  for (QueryClass klass : kQueryClasses) {
    add("exec.execute_ms." + QueryClassName(klass),
        span_mean("exec.execute." + QueryClassName(klass), kMs), "ms");
  }
  add("exec.rows_out", series_mean("layer.rows_out"), "rows");

  add("snapshot.pin_us", span_mean("snapshot.pin", kUs), "us");
  add("snapshot.epochs_published", static_cast<double>(after_.epoch - before_.epoch),
      "count");
  add("snapshot.epochs_retired", static_cast<double>(after_.retired - before_.retired),
      "count");

  add("zoomin.hit_ms", series_mean("layer.zoomin.hit"), "ms");
  add("zoomin.miss_ms", series_mean("layer.zoomin.miss"), "ms");
  add("zoomin.rows", series_mean("layer.zoomin.rows"), "rows");
  add("zoomin.annotations", series_mean("layer.zoomin.annotations"), "count");
  uint64_t cache_hits = after_.cache.hits - before_.cache.hits;
  uint64_t cache_misses = after_.cache.misses - before_.cache.misses;
  add("rco.hit_ratio", HitRatio(cache_hits, cache_misses), "ratio");
  add("rco.evictions", static_cast<double>(after_.cache.evictions - before_.cache.evictions),
      "count");
  add("rco.rejected", static_cast<double>(after_.cache.rejected - before_.cache.rejected),
      "count");
  add("rco.bytes_used", static_cast<double>(after_.cache.bytes_used), "bytes");

  for (const char* instance : kInstances) {
    add(std::string("summary.link_ms.") + instance,
        span_mean(std::string("summary.link.") + instance, kMs), "ms");
  }
  add("summary.rows_maintained", static_cast<double>(rows_maintained_), "count");

  // Ingest throughput and batch latency (untraced batches): per-layer, not
  // end-to-end, because on a shared host the fsynced write path varies by
  // more between runs than any end-to-end bound allows.
  std::vector<double> rates = recorder_->Series(batch_series_ + ".rate");
  for (double rate : recorder_->Series(batch_series_ + ".traced.rate")) rates.push_back(rate);
  add("ingest.ann_per_s", MedianOf(rates), "1/s");
  add("ingest.batch_p50_ms", Percentile(recorder_->Series(batch_series_), 50), "ms");
  add("ingest.batch_p90_ms", Percentile(recorder_->Series(batch_series_), 90), "ms");
  add("ingest.attach_us", span_mean("ingest.attach", kUs), "us");
  add("ingest.archive_us", span_mean("ingest.archive", kUs), "us");
  add("annotation.count", static_cast<double>(annotation_count_), "count");

  add("wal.records", static_cast<double>(wal_records_), "count");
  add("wal.bytes_per_user_byte",
      user_bytes_ > 0 ? static_cast<double>(wal_bytes_) / user_bytes_ : 0.0, "ratio");
  add("wal.segments", static_cast<double>(wal_segments_), "count");
  add("wal.compactions", static_cast<double>(compaction_.compactions), "count");
  add("wal.records_dropped", static_cast<double>(compaction_.records_dropped), "count");
  add("wal.compaction_failures", static_cast<double>(compaction_.failures), "count");
  add("checkpoint_ms", span_mean("core.checkpoint", kMs), "ms");

  add("pool.hit_ratio",
      HitRatio(after_.pool_hits - before_.pool_hits, after_.pool_misses - before_.pool_misses),
      "ratio");
  add("pool.misses", static_cast<double>(after_.pool_misses - before_.pool_misses), "count");
  add("disk.reads", static_cast<double>(after_.disk_reads - before_.disk_reads), "count");
  add("disk.writes", static_cast<double>(after_.disk_writes - before_.disk_writes), "count");
  add("index_pool.hit_ratio",
      HitRatio(after_.index_hits - before_.index_hits,
               after_.index_misses - before_.index_misses),
      "ratio");

  const in::core::RecoveryReport& recovery = db_.engine()->recovery();
  add("recovery.init_ms", span_mean("recovery.init", kMs), "ms");
  add("recovery.records_replayed", static_cast<double>(recovery.wal_records_replayed),
      "count");
  add("recovery.replay_chains", static_cast<double>(recovery.replay_chains), "count");

  add("rel.analyze_ms", span_mean("rel.analyze", kMs), "ms");
  add("rel.create_index_ms", span_mean("rel.create_index", kMs), "ms");

  add("trace.unattributed_frac", UnattributedFraction(spans, "stmt."), "ratio");
  // Tracing overhead: per statement kind, the traced median over the
  // untraced median of the interleaved rounds, weighted by traced time.
  double weighted = 0.0;
  double weight = 0.0;
  for (const std::string prefix : {"", "check."}) {
    std::vector<std::string> kinds = {"zoomin.all", "batch"};
    for (QueryClass klass : kQueryClasses) {
      kinds.push_back("query." + QueryClassName(klass));
    }
    for (const std::string& kind : kinds) {
      auto finite = [&](const std::string& series) {
        std::vector<double> values = recorder_->Series(series);
        std::erase_if(values, [](double v) { return !std::isfinite(v); });
        return values;
      };
      std::vector<double> traced = finite(prefix + kind + ".traced");
      std::vector<double> untraced = finite(prefix + kind);
      if (traced.empty() || untraced.empty()) continue;
      double total = Mean(traced) * static_cast<double>(traced.size());
      weighted += total * (MedianOf(traced) / MedianOf(untraced) - 1.0);
      weight += total;
    }
  }
  add("trace.overhead_frac", weight > 0 ? weighted / weight : 0.0, "ratio");
}

}  // namespace

bool RunWorkload(const RunOptions& options, Recorder* recorder,
                 std::vector<Metric>* metrics) {
  if (options.workload != "ingest" && options.workload != "explore_hot" &&
      options.workload != "archive_cold") {
    return false;
  }
  Scenario scenario(options, recorder);
  scenario.Run(metrics);
  return true;
}

}  // namespace e2e
