#include "scenario.h"

#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <utility>
#include <variant>

#include "core/summary_object.h"
#include "exec/query_context.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "stats.h"
#include "workload/workload.h"

namespace e2e {

namespace fs = std::filesystem;
using in::Status;
using in::core::AnnotateSpec;
using in::core::Engine;
using in::core::QueryResult;
using in::core::ZoomInResult;

// --- Recorder ----------------------------------------------------------------

void Recorder::Record(const std::string& series, const Status& status, double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (status.ok()) {
    series_[series].push_back(ms);
    return;
  }
  ++failed_;
  series_[series].push_back(kFailedSample);
  if (errors_.size() < 20) errors_.push_back(series + ": " + status.ToString());
}

void Recorder::Sample(const std::string& series, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  series_[series].push_back(value);
}

void Recorder::CheckFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  correct_ = false;
  if (errors_.size() < 20) errors_.push_back("check failed: " + what);
}

std::vector<double> Recorder::Series(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

uint64_t Recorder::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t Recorder::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

bool Recorder::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return correct_;
}

std::vector<std::string> Recorder::errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

// --- Database ----------------------------------------------------------------

namespace {

std::unique_ptr<in::core::SummaryInstance> MakeInstance(const std::string& name) {
  using in::core::SummaryInstance;
  using in::workload::AnnotationGenerator;
  if (name == "ClassBird1" || name == "ClassBird2") {
    bool first = name == "ClassBird1";
    auto instance = SummaryInstance::MakeClassifier(
        name, first ? std::vector<std::string>{"Behavior", "Disease", "Anatomy", "Other"}
                    : std::vector<std::string>{"Provenance", "Comment", "Question"});
    auto training = first ? AnnotationGenerator::ClassBird1Training()
                          : AnnotationGenerator::ClassBird2Training();
    for (const auto& [label, text] : training) {
      if (!instance->classifier()->Train(label, text).ok()) return nullptr;
    }
    return instance;
  }
  if (name == "SimCluster") return SummaryInstance::MakeCluster(name, 0.35);
  in::mining::SnippetOptions options;
  options.max_sentences = 2;
  options.max_chars = 200;
  return SummaryInstance::MakeSnippet(name, options);
}

}  // namespace

Database::Database(std::string dir, in::core::EngineOptions options)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      species_(in::workload::GenerateSpecies(kSpecies, kSpeciesSeed)) {
  options_.db_path = dir_ + "/birds.db";
}

Database::~Database() { Destroy(); }

size_t Database::num_columns() const {
  return in::workload::BirdTableSchema(kTable).NumColumns();
}

Status Database::Create(Recorder* recorder, Tracer* tracer) {
  Destroy();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return Status::IoError("cannot create " + dir_ + ": " + ec.message());
  options_.open_existing = false;
  engine_ = std::make_unique<Engine>(options_);
  Status init = TimedOp(recorder, tracer, "setup.init", "setup.init",
                        [&] { return engine_->Init(); });
  if (!init.ok()) return init;
  return BuildCatalog(recorder, tracer, "setup");
}

Status Database::Reopen(Recorder* recorder, Tracer* tracer) {
  {
    ScopedSpan close(tracer, "reopen.close");
    engine_.reset();
  }
  options_.open_existing = true;
  engine_ = std::make_unique<Engine>(options_);
  Status init = TimedOp(recorder, tracer, "reopen.init", "recovery.init",
                        [&] { return engine_->Init(); });
  if (!init.ok()) return init;
  return BuildCatalog(recorder, tracer, "reopen");
}

Status Database::BuildCatalog(Recorder* recorder, Tracer* tracer,
                              const std::string& phase) {
  Status created = TimedOp(recorder, tracer, phase + ".create_table",
                           phase + ".create_table", [&] {
                             return engine_
                                 ->CreateTable(kTable, in::workload::BirdTableSchema(kTable))
                                 .status();
                           });
  if (!created.ok()) return created;
  Status inserted = TimedOp(recorder, tracer, phase + ".insert", phase + ".insert", [&] {
    for (size_t i = 0; i < species_.size(); ++i) {
      const auto& s = species_[i];
      in::rel::Tuple tuple(
          {in::rel::Value(static_cast<int64_t>(i)), in::rel::Value(s.common_name),
           in::rel::Value(s.scientific_name), in::rel::Value(s.family),
           in::rel::Value(s.region), in::rel::Value(s.weight_kg),
           in::rel::Value(s.population_estimate)});
      Status status = engine_->Insert(kTable, std::move(tuple)).status();
      if (!status.ok()) return status;
    }
    return Status::OK();
  });
  if (!inserted.ok()) return inserted;
  // Link spans of the restart path are the summary layer's full
  // re-summarization; set-up links run on an empty table.
  const std::string link_span = phase == "reopen" ? "summary.link." : "setup.link.";
  for (const char* name : kInstances) {
    Status registered = TimedOp(recorder, tracer, phase + ".register",
                                phase + ".register." + name, [&] {
                                  auto instance = MakeInstance(name);
                                  if (instance == nullptr) {
                                    return Status::Internal("training failed");
                                  }
                                  return engine_->RegisterInstance(std::move(instance));
                                });
    if (!registered.ok()) return registered;
    Status linked = TimedOp(recorder, tracer, phase + ".link", link_span + name,
                            [&] { return engine_->LinkInstance(name, kTable); });
    if (!linked.ok()) return linked;
  }
  return Status::OK();
}

void Database::Destroy() {
  engine_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

uint64_t Database::FileBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// --- SpecStream / Ingestor ------------------------------------------------------

namespace {
constexpr double kDocumentFraction = 0.02;  // Large attached documents.
constexpr double kCellFraction = 0.4;       // Single-column annotations.
}  // namespace

SpecStream::SpecStream(uint64_t seed, const Database* db)
    : db_(db), rng_(seed ^ 0x5eedA11071A7E5ULL), gen_(seed + 1) {}

std::vector<AnnotateSpec> SpecStream::Next(size_t count) {
  const auto& species = db_->species();
  std::vector<AnnotateSpec> specs(count);
  for (AnnotateSpec& spec : specs) {
    spec.table = kTable;
    spec.row = rng_.Zipf(species.size(), 0.8);
    const auto& bird = species[spec.row];
    auto generated = rng_.Bernoulli(kDocumentFraction) ? gen_.GenerateDocument(bird, 20)
                                                       : gen_.GenerateComment(bird);
    if (rng_.Bernoulli(kCellFraction)) spec.columns = {rng_.Uniform(db_->num_columns())};
    spec.body = std::move(generated.annotation.body);
    spec.author = std::move(generated.annotation.author);
    spec.kind = generated.annotation.kind;
    spec.title = std::move(generated.annotation.title);
    spec.timestamp = generated.annotation.timestamp;
  }
  return specs;
}

Ingestor::Ingestor(Database* db, Recorder* recorder, uint64_t seed, size_t num_threads,
                   size_t checkpoint_every)
    : db_(db),
      recorder_(recorder),
      rng_(seed ^ 0xA77AC4ULL),
      num_threads_(num_threads),
      checkpoint_every_(checkpoint_every) {}

void Ingestor::Batch(const std::vector<AnnotateSpec>& specs, Tracer* tracer,
                     const std::string& series) {
  Engine* engine = db_->engine();
  if (tracer != nullptr) tracer->BeginStatement();
  ScopedSpan root(tracer, "stmt.ingest");
  int64_t start = NowNs();
  in::Result<std::vector<in::ann::AnnotationId>> ids = [&] {
    ScopedSpan span(tracer, "ingest.batch");
    return engine->AnnotateBatch(specs, {.num_threads = num_threads_});
  }();
  int64_t end = NowNs();
  recorder_->Record(series, ids.status(), static_cast<double>(end - start) / 1e6);
  period_busy_ns_ += end - start;
  if (ids.ok()) {
    acknowledged_ += ids->size();
    period_acknowledged_ += ids->size();
    for (const AnnotateSpec& spec : specs) user_bytes_ += spec.body.size();
  }
  // Follow-up calls count as ingest time and are recorded as their own ops.
  auto follow_up = [&](const char* op, const char* span, auto&& fn) {
    int64_t t0 = NowNs();
    TimedOp(recorder_, tracer, op, span, fn);
    period_busy_ns_ += NowNs() - t0;
  };
  size_t num_rows = db_->species().size();
  for (size_t i = 0; i < specs.size(); ++i) {
    // Draw unconditionally so the input stream does not depend on outcomes.
    bool attach = rng_.Bernoulli(0.05);
    uint64_t other = rng_.Uniform(num_rows);
    bool archive = rng_.Bernoulli(0.01);
    if (!ids.ok()) continue;
    in::ann::AnnotationId id = (*ids)[i];
    if (attach && other != specs[i].row) {
      follow_up("attach", "ingest.attach", [&] {
        return engine->AttachAnnotation(id, kTable, other, specs[i].columns);
      });
    }
    if (archive) {
      follow_up("archive", "ingest.archive", [&] { return engine->ArchiveAnnotation(id); });
    }
  }
  if (++batches_ % checkpoint_every_ == 0) {
    follow_up("checkpoint", "core.checkpoint", [&] { return engine->Checkpoint(); });
    recorder_->Sample(series + ".rate", static_cast<double>(period_acknowledged_) * 1e9 /
                                            static_cast<double>(period_busy_ns_));
    period_acknowledged_ = 0;
    period_busy_ns_ = 0;
  }
}

// --- Queries -------------------------------------------------------------------

std::string QueryClassName(QueryClass klass) {
  switch (klass) {
    case QueryClass::kScan: return "scan";
    case QueryClass::kSumFilter: return "sumfilter";
    case QueryClass::kJoin: return "join";
    case QueryClass::kGroup: return "group";
    case QueryClass::kTopK: return "topk";
    case QueryClass::kPoint: return "point";
  }
  return "unknown";
}

QueryGen::QueryGen(uint64_t seed, size_t summary_threshold)
    : rng_(seed ^ 0x0E11E5ULL),
      summary_threshold_(summary_threshold),
      join_offset_(rng_.Uniform(kSpecies)) {
  for (uint64_t& counter : counters_) counter = rng_.Uniform(12);
}

std::string QueryGen::Next(QueryClass klass) {
  static const char* kLabels[] = {"Behavior", "Disease", "Anatomy", "Other"};
  uint64_t n = counters_[static_cast<size_t>(klass)]++;
  std::ostringstream os;
  switch (klass) {
    case QueryClass::kScan:
      os << "SELECT b.id, b.name, b.weight FROM birds b WHERE b.weight > "
         << 0.5 * static_cast<double>(1 + n % 3);
      break;
    case QueryClass::kSumFilter:
      os << "SELECT b.id, b.name FROM birds b WHERE SUMMARY_COUNT(ClassBird1, '"
         << kLabels[n % 4] << "') >= " << summary_threshold_;
      break;
    case QueryClass::kJoin: {
      uint64_t lo = (join_offset_ + n * 16) % (kSpecies - 16);
      os << "SELECT l.id, l.name, r.id FROM birds l, birds r WHERE l.family = r.family"
         << " AND l.id >= " << lo << " AND l.id < " << lo + 16;
      break;
    }
    case QueryClass::kGroup:
      os << "SELECT b.family, COUNT(*) FROM birds b WHERE b.population > "
         << (n % 4) * 1000 << " GROUP BY b.family";
      break;
    case QueryClass::kTopK:
      os << "SELECT b.id, b.name FROM birds b ORDER BY SUMMARY_COUNT(ClassBird1) DESC"
         << " LIMIT " << 5 * (1 + n % 4);
      break;
    case QueryClass::kPoint:
      os << "SELECT b.id, b.name, b.family FROM birds b WHERE b.id = "
         << rng_.Uniform(kSpecies);
      break;
  }
  return os.str();
}

// --- Analyst -------------------------------------------------------------------

Analyst::Analyst(Engine* engine, Recorder* recorder, Tracer* tracer, std::string prefix)
    : engine_(engine),
      recorder_(recorder),
      tracer_(tracer),
      prefix_(std::move(prefix)),
      session_(engine),
      context_(std::make_shared<in::exec::QueryContext>()) {}

in::Result<QueryResult> Analyst::Select(const std::string& sql, QueryClass klass,
                                        bool traced) {
  const std::string class_series = prefix_ + "query." + QueryClassName(klass);
  in::Result<QueryResult> out = Status::Internal("not run");
  int64_t start = NowNs();
  if (!traced || tracer_ == nullptr) {
    auto executed = session_.Execute(sql);
    out = executed.ok() ? in::Result<QueryResult>(std::move(executed->result))
                        : in::Result<QueryResult>(executed.status());
  } else {
    tracer_->BeginStatement();
    out = [&]() -> in::Result<QueryResult> {
      ScopedSpan root(tracer_, "stmt.select");
      auto parsed = [&] {
        ScopedSpan span(tracer_, "sql.parse");
        return in::sql::Parse(sql);
      }();
      if (!parsed.ok()) return parsed.status();
      auto* select = std::get_if<in::sql::SelectStatement>(&*parsed);
      if (select == nullptr) return Status::InvalidArgument("not a SELECT: " + sql);
      in::sql::PlannerOptions options;
      options.parallelism = session_.parallelism();
      options.optimize = session_.optimizer_enabled();
      auto plan = [&] {
        ScopedSpan span(tracer_, "sql.plan");
        return in::sql::PlanSelect(*select, engine_, options);
      }();
      if (!plan.ok()) return plan.status();
      (*plan)->SetQueryContext(context_);
      context_->BeginStatement(0, 0);
      // Engine::Execute pins the current epoch itself when given none; the
      // pin is taken here, at the same point, only to time it on its own.
      auto pinned = [&] {
        ScopedSpan span(tracer_, "snapshot.pin");
        return engine_->PinSnapshot();
      }();
      if (!pinned.ok()) return pinned.status();
      in::core::ExecuteOptions exec_options;
      exec_options.snapshot = std::move(*pinned);
      ScopedSpan span(tracer_, "exec.execute." + QueryClassName(klass));
      return engine_->Execute(std::move(*plan), std::move(exec_options));
    }();
    if (out.ok()) recorder_->Sample("layer.rows_out", static_cast<double>(out->rows.size()));
  }
  double ms = static_cast<double>(NowNs() - start) / 1e6;
  recorder_->Record(prefix_ + "query", out.status(), ms);
  recorder_->Sample(class_series + (traced ? ".traced" : ""),
                    out.ok() ? ms : kFailedSample);
  return out;
}

in::Result<ZoomInResult> Analyst::ZoomIn(in::core::QueryId qid, const std::string& instance,
                                         size_t index, bool traced) {
  std::string sql = "ZOOMIN REFERENCE QID " + std::to_string(qid) + " ON " + instance +
                    " INDEX " + std::to_string(index + 1);
  in::Result<ZoomInResult> out = Status::Internal("not run");
  int64_t start = NowNs();
  if (!traced || tracer_ == nullptr) {
    auto executed = session_.Execute(sql);
    out = executed.ok() ? in::Result<ZoomInResult>(std::move(executed->zoom))
                        : in::Result<ZoomInResult>(executed.status());
  } else {
    tracer_->BeginStatement();
    out = [&]() -> in::Result<ZoomInResult> {
      ScopedSpan root(tracer_, "stmt.zoomin");
      auto parsed = [&] {
        ScopedSpan span(tracer_, "sql.parse");
        return in::sql::Parse(sql);
      }();
      if (!parsed.ok()) return parsed.status();
      auto* stmt = std::get_if<in::sql::ZoomInStatement>(&*parsed);
      if (stmt == nullptr) return Status::InvalidArgument("not a ZOOMIN: " + sql);
      in::core::ZoomInRequest request;
      request.qid = stmt->qid;
      request.instance_name = stmt->instance;
      request.component_index = stmt->index;
      if (stmt->where != nullptr) {
        ScopedSpan span(tracer_, "sql.bind");
        auto schema = engine_->SchemaOf(stmt->qid);
        if (!schema.ok()) return schema.status();
        auto bound = in::sql::Bind(*stmt->where, *schema);
        if (!bound.ok()) return bound.status();
        request.predicate = std::move(*bound);
      }
      int64_t call = NowNs();
      auto zoom = [&] {
        ScopedSpan span(tracer_, "core.zoomin");
        return engine_->ZoomIn(request);
      }();
      if (zoom.ok()) {
        double call_ms = static_cast<double>(NowNs() - call) / 1e6;
        recorder_->Sample(zoom->served_from_cache ? "layer.zoomin.hit" : "layer.zoomin.miss",
                          call_ms);
        size_t annotations = 0;
        for (const auto& row : zoom->rows) annotations += row.annotations.size();
        recorder_->Sample("layer.zoomin.rows", static_cast<double>(zoom->rows.size()));
        recorder_->Sample("layer.zoomin.annotations", static_cast<double>(annotations));
      }
      return zoom;
    }();
  }
  double ms = static_cast<double>(NowNs() - start) / 1e6;
  recorder_->Record(prefix_ + "zoomin", out.status(), ms);
  recorder_->Sample(prefix_ + (traced ? "zoomin.all.traced" : "zoomin.all"),
                    out.ok() ? ms : kFailedSample);
  if (out.ok()) {
    recorder_->Sample(prefix_ + (out->served_from_cache ? "zoomin.hit" : "zoomin.miss"), ms);
  }
  return out;
}

void Analyst::CheckSerialReplay(const std::string& sql, const std::string& what) {
  auto pinned = engine_->PinSnapshot();
  auto parsed = in::sql::Parse(sql);
  auto* select = parsed.ok() ? std::get_if<in::sql::SelectStatement>(&*parsed) : nullptr;
  if (!pinned.ok() || select == nullptr) {
    recorder_->CheckFailed(what + ": cannot pin or parse for replay");
    return;
  }
  auto run = [&](size_t parallelism, bool optimize) -> std::string {
    in::sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.optimize = optimize;
    auto plan = in::sql::PlanSelect(*select, engine_, options);
    if (!plan.ok()) return "error: " + plan.status().ToString();
    in::core::ExecuteOptions exec_options;
    exec_options.snapshot = *pinned;
    exec_options.retain = false;
    auto result = engine_->Execute(std::move(*plan), std::move(exec_options));
    if (!result.ok()) return "error: " + result.status().ToString();
    return Render(&*result);
  };
  std::string parallel = run(session_.parallelism(), true);
  std::string serial = run(1, false);
  if (parallel != serial || parallel.rfind("error: ", 0) == 0) {
    recorder_->CheckFailed(what + ": pinned-epoch serial replay differs for " + sql);
  }
}

// --- Checks --------------------------------------------------------------------

std::string Render(QueryResult* result) {
  result->qid = 0;
  return in::sql::FormatResult(*result);
}

std::string ZoomInIds(const ZoomInResult& zoom) {
  std::ostringstream os;
  for (const auto& row : zoom.rows) {
    os << row.row_index << ":";
    for (const auto& note : row.annotations) os << " " << note.id;
    os << "\n";
  }
  return os.str();
}

bool ZoomInComplete(const QueryResult& result, const ZoomInResult& zoom,
                    const std::string& instance, size_t index) {
  size_t expected_total = 0;
  for (const auto& row : result.rows) {
    auto* summary = dynamic_cast<const in::core::ClassifierObject*>(
        row.FindSummary(instance));
    if (summary != nullptr) expected_total += summary->LabelCount(index);
  }
  size_t returned_total = 0;
  for (const auto& row : zoom.rows) {
    if (row.row_index >= result.rows.size()) return false;
    auto* summary = dynamic_cast<const in::core::ClassifierObject*>(
        result.rows[row.row_index].FindSummary(instance));
    size_t expected = summary != nullptr ? summary->LabelCount(index) : 0;
    if (row.annotations.size() != expected) return false;
    returned_total += row.annotations.size();
  }
  return returned_total == expected_total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace e2e
