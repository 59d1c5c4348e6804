#include "sql/session.h"

#include <sstream>

#include "common/string_util.h"
#include "exec/metrics.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace insightnotes::sql {

namespace {

Result<ExecutionOutput> RunSelect(const SelectStatement& stmt, core::Engine* engine,
                                  const PlannerOptions& options,
                                  const std::shared_ptr<exec::QueryContext>& context,
                                  core::QueryId qid,
                                  std::vector<core::TraceEvent>* trace) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(auto plan, PlanSelect(stmt, engine, options));
  plan->SetQueryContext(context);
  core::ExecuteOptions exec_options;
  exec_options.qid = qid;
  exec_options.trace = trace;
  INSIGHTNOTES_ASSIGN_OR_RETURN(
      core::QueryResult result,
      engine->Execute(std::move(plan), std::move(exec_options)));
  ExecutionOutput out;
  out.kind = ExecutionOutput::Kind::kRows;
  out.result = std::move(result);
  return out;
}

/// SET knobs treat any negative value as "off".
int64_t ClampNonNegative(int64_t value) { return value < 0 ? 0 : value; }

Result<ExecutionOutput> RunCreateTable(const CreateTableStatement& stmt,
                                       core::Engine* engine) {
  rel::Schema schema;
  for (const auto& [name, type] : stmt.columns) {
    schema.AddColumn(rel::Column{name, type, stmt.table});
  }
  INSIGHTNOTES_RETURN_IF_ERROR(engine->CreateTable(stmt.table, schema).status());
  ExecutionOutput out;
  out.message = "created table " + stmt.table;
  return out;
}

Result<ExecutionOutput> RunInsert(const InsertStatement& stmt, core::Engine* engine) {
  for (const auto& row : stmt.rows) {
    INSIGHTNOTES_RETURN_IF_ERROR(
        engine->Insert(stmt.table, rel::Tuple(row)).status());
  }
  ExecutionOutput out;
  out.message = "inserted " + std::to_string(stmt.rows.size()) + " row(s) into " +
                stmt.table;
  return out;
}

Result<ExecutionOutput> RunAnnotate(const AnnotateStatement& stmt,
                                    core::Engine* engine) {
  core::AnnotateSpec spec;
  spec.table = stmt.table;
  spec.row = stmt.row;
  spec.body = stmt.body;
  if (!stmt.author.empty()) spec.author = stmt.author;
  spec.kind =
      stmt.is_document ? ann::AnnotationKind::kDocument : ann::AnnotationKind::kComment;
  spec.title = stmt.title;
  // Resolve column names to positions.
  INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Table * table,
                                engine->catalog()->GetTable(stmt.table));
  for (const std::string& column : stmt.columns) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(size_t index, table->schema().IndexOf(column));
    spec.columns.push_back(index);
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(ann::AnnotationId id, engine->Annotate(spec));
  ExecutionOutput out;
  out.message = "annotation " + std::to_string(id) + " added to " + stmt.table +
                " row " + std::to_string(stmt.row);
  return out;
}

Result<ExecutionOutput> RunZoomIn(const ZoomInStatement& stmt, core::Engine* engine) {
  core::ZoomInRequest request;
  request.qid = stmt.qid;
  request.instance_name = stmt.instance;
  request.component_index = stmt.index;
  if (stmt.where != nullptr) {
    // The predicate references the *result's* columns (Figure 3): bind it
    // against the referenced query's output schema.
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Schema schema, engine->SchemaOf(stmt.qid));
    INSIGHTNOTES_ASSIGN_OR_RETURN(request.predicate, Bind(*stmt.where, schema));
  }
  INSIGHTNOTES_ASSIGN_OR_RETURN(core::ZoomInResult zoom, engine->ZoomIn(request));
  ExecutionOutput out;
  out.kind = ExecutionOutput::Kind::kZoomIn;
  out.zoom = std::move(zoom);
  return out;
}

Result<ExecutionOutput> RunCreateInstance(const CreateInstanceStatement& stmt,
                                          core::Engine* engine) {
  std::unique_ptr<core::SummaryInstance> instance;
  switch (stmt.type) {
    case CreateInstanceStatement::Type::kClassifier:
      instance = core::SummaryInstance::MakeClassifier(stmt.name, stmt.labels);
      break;
    case CreateInstanceStatement::Type::kCluster:
      instance = core::SummaryInstance::MakeCluster(stmt.name, stmt.threshold);
      break;
    case CreateInstanceStatement::Type::kSnippet: {
      mining::SnippetOptions options;
      options.max_sentences = stmt.snippet_sentences;
      options.max_chars = stmt.snippet_chars;
      instance = core::SummaryInstance::MakeSnippet(stmt.name, options);
      break;
    }
  }
  INSIGHTNOTES_RETURN_IF_ERROR(engine->RegisterInstance(std::move(instance)));
  ExecutionOutput out;
  out.message = "created summary instance " + stmt.name;
  return out;
}

Result<ExecutionOutput> RunTrain(const TrainInstanceStatement& stmt,
                                 core::Engine* engine) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(core::SummaryInstance * instance,
                                engine->summaries()->GetInstance(stmt.instance));
  if (instance->type() != core::SummaryTypeKind::kClassifier) {
    return Status::InvalidArgument("TRAIN applies to classifier instances only");
  }
  auto* classifier = instance->classifier();
  const auto& labels = classifier->labels();
  size_t label_index = labels.size();
  for (size_t i = 0; i < labels.size(); ++i) {
    if (EqualsIgnoreCase(labels[i], stmt.label)) {
      label_index = i;
      break;
    }
  }
  if (label_index == labels.size()) {
    return Status::NotFound("instance '" + stmt.instance + "' has no label '" +
                            stmt.label + "'");
  }
  INSIGHTNOTES_RETURN_IF_ERROR(classifier->Train(label_index, stmt.text));
  ExecutionOutput out;
  out.message = "trained " + stmt.instance + " label " + stmt.label;
  return out;
}

Result<ExecutionOutput> RunLink(const LinkStatement& stmt, core::Engine* engine) {
  if (stmt.link) {
    INSIGHTNOTES_RETURN_IF_ERROR(engine->LinkInstance(stmt.instance, stmt.table));
  } else {
    INSIGHTNOTES_RETURN_IF_ERROR(engine->UnlinkInstance(stmt.instance, stmt.table));
  }
  ExecutionOutput out;
  out.message = std::string(stmt.link ? "linked" : "unlinked") + " summary " +
                stmt.instance + (stmt.link ? " to " : " from ") + stmt.table;
  return out;
}

std::string RenderCacheStats(const core::ZoomInCache& cache) {
  core::CacheStats stats = cache.stats();
  std::ostringstream os;
  os << "cache [" << CachePolicyToString(cache.policy()) << "]: hits=" << stats.hits
     << " misses=" << stats.misses << " insertions=" << stats.insertions
     << " evictions=" << stats.evictions << " rejected=" << stats.rejected
     << " bytes=" << stats.bytes_used << "/" << cache.budget_bytes();
  return os.str();
}

}  // namespace

Result<ExecutionOutput> SqlSession::Execute(std::string_view sql,
                                            std::vector<core::TraceEvent>* trace) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(Statement statement, Parse(sql));
  if (auto* select = std::get_if<SelectStatement>(&statement)) {
    PlannerOptions options = planner_options_;
    // Tracing observes per-operator tuple order; keep the serial
    // rule-driven plan so events arrive deterministically, grouped per
    // operator per batch (optimizer plans may reorder operator events).
    options.parallelism = trace != nullptr ? 1 : parallelism_;
    options.optimize = optimizer_enabled_ && trace == nullptr;
    context_->BeginStatement(statement_timeout_ms_, memory_limit_bytes_);
    return RunSelect(*select, engine_, options, context_, NextQid(), trace);
  }
  if (auto* set = std::get_if<SetStatement>(&statement)) {
    if (EqualsIgnoreCase(set->name, "optimizer")) {
      optimizer_enabled_ = set->value != 0;
      ExecutionOutput out;
      out.message = std::string("optimizer = ") + (optimizer_enabled_ ? "on" : "off");
      return out;
    }
    if (EqualsIgnoreCase(set->name, "parallelism")) {
      parallelism_ = static_cast<size_t>(std::max<int64_t>(1, set->value));
      ExecutionOutput out;
      out.message = "parallelism = " + std::to_string(parallelism_);
      return out;
    }
    if (EqualsIgnoreCase(set->name, "statement_timeout")) {
      statement_timeout_ms_ = ClampNonNegative(set->value);
      ExecutionOutput out;
      out.message =
          statement_timeout_ms_ > 0
              ? "statement_timeout = " + std::to_string(statement_timeout_ms_) + " ms"
              : "statement_timeout = off";
      return out;
    }
    if (EqualsIgnoreCase(set->name, "memory_limit")) {
      memory_limit_bytes_ = static_cast<size_t>(ClampNonNegative(set->value));
      ExecutionOutput out;
      out.message = memory_limit_bytes_ > 0
                        ? "memory_limit = " + std::to_string(memory_limit_bytes_) +
                              " bytes"
                        : "memory_limit = off";
      return out;
    }
    return Status::InvalidArgument("unknown session knob '" + set->name + "'");
  }
  if (auto* explain = std::get_if<ExplainStatement>(&statement)) {
    if (explain->is_zoom_in) {
      const ZoomInStatement& zoom_stmt = explain->zoom_in;
      ExecutionOutput out;
      if (!explain->analyze) {
        // Plan shape without executing: the serve path the zoom-in would
        // take plus the shared result cache's current state.
        INSIGHTNOTES_RETURN_IF_ERROR(engine_->SchemaOf(zoom_stmt.qid).status());
        std::ostringstream os;
        os << "ZoomIn(QID " << zoom_stmt.qid;
        if (!zoom_stmt.instance.empty()) os << ", instance=" << zoom_stmt.instance;
        os << ", component=" << (zoom_stmt.index + 1) << ")\n";
        os << "  serve: "
           << (engine_->cache()->Contains(zoom_stmt.qid)
                   ? "cached result snapshot"
                   : "re-execute retained plan")
           << "\n";
        os << "  " << RenderCacheStats(*engine_->cache());
        out.message = os.str();
        return out;
      }
      INSIGHTNOTES_ASSIGN_OR_RETURN(ExecutionOutput zoom_out,
                                    RunZoomIn(zoom_stmt, engine_));
      size_t annotations = 0;
      for (const core::ZoomInRowResult& row : zoom_out.zoom.rows) {
        annotations += row.annotations.size();
      }
      std::ostringstream os;
      os << "ZoomIn(QID " << zoom_stmt.qid << "): "
         << (zoom_out.zoom.served_from_cache ? "[cache hit]" : "[re-executed]")
         << " " << zoom_out.zoom.rows.size() << " row(s), " << annotations
         << " annotation(s)\n";
      os << "  " << RenderCacheStats(*engine_->cache());
      out.message = os.str();
      return out;
    }
    PlannerOptions options = planner_options_;
    options.parallelism = parallelism_;
    options.optimize = optimizer_enabled_;
    INSIGHTNOTES_ASSIGN_OR_RETURN(auto plan,
                                  PlanSelect(explain->select, engine_, options));
    ExecutionOutput out;
    if (!explain->analyze) {
      out.message = exec::RenderPlan(plan.get());
      return out;
    }
    exec::Operator* root = plan.get();
    root->SetMetricsEnabled(true);
    plan->SetQueryContext(context_);
    context_->BeginStatement(statement_timeout_ms_, memory_limit_bytes_);
    core::ExecuteOptions exec_options;
    exec_options.qid = NextQid();
    // The engine retains the plan for zoom-in re-execution, so `root`
    // outlives Execute and the counters can be snapshotted afterwards.
    INSIGHTNOTES_ASSIGN_OR_RETURN(
        core::QueryResult result,
        engine_->Execute(std::move(plan), std::move(exec_options)));
    std::ostringstream os;
    os << exec::RenderPlanMetrics(exec::CollectPlanMetrics(root));
    os << "QID " << result.qid << ": " << result.rows.size() << " row(s)";
    out.message = os.str();
    return out;
  }
  if (auto* create = std::get_if<CreateTableStatement>(&statement)) {
    return RunCreateTable(*create, engine_);
  }
  if (auto* insert = std::get_if<InsertStatement>(&statement)) {
    return RunInsert(*insert, engine_);
  }
  if (auto* annotate = std::get_if<AnnotateStatement>(&statement)) {
    return RunAnnotate(*annotate, engine_);
  }
  if (auto* zoomin = std::get_if<ZoomInStatement>(&statement)) {
    return RunZoomIn(*zoomin, engine_);
  }
  if (auto* create_instance = std::get_if<CreateInstanceStatement>(&statement)) {
    return RunCreateInstance(*create_instance, engine_);
  }
  if (auto* train = std::get_if<TrainInstanceStatement>(&statement)) {
    return RunTrain(*train, engine_);
  }
  if (auto* link = std::get_if<LinkStatement>(&statement)) {
    return RunLink(*link, engine_);
  }
  if (auto* analyze = std::get_if<AnalyzeStatement>(&statement)) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(uint64_t rows, engine_->Analyze(analyze->table));
    ExecutionOutput out;
    out.message = "analyzed " + analyze->table + ": " + std::to_string(rows) +
                  " row(s)";
    return out;
  }
  if (auto* create_index = std::get_if<CreateIndexStatement>(&statement)) {
    INSIGHTNOTES_RETURN_IF_ERROR(
        engine_->CreateIndex(create_index->table, create_index->column));
    ExecutionOutput out;
    out.message = "created index on " + create_index->table + "(" +
                  create_index->column + ")";
    return out;
  }
  return Status::Internal("unhandled statement kind");
}

std::string FormatResult(const core::QueryResult& result, bool show_summaries) {
  std::ostringstream os;
  os << "QID " << result.qid << " (" << result.rows.size() << " rows)\n";
  for (size_t i = 0; i < result.schema.NumColumns(); ++i) {
    if (i > 0) os << " | ";
    os << result.schema.ColumnAt(i).QualifiedName();
  }
  os << "\n";
  for (const core::AnnotatedTuple& row : result.rows) {
    for (size_t i = 0; i < row.tuple.NumValues(); ++i) {
      if (i > 0) os << " | ";
      os << row.tuple.ValueAt(i).ToString();
    }
    if (show_summaries && !row.summaries.empty()) {
      os << "   ||";
      for (const auto& summary : row.summaries) {
        os << " " << summary->instance_name() << "=" << summary->Render();
      }
    }
    os << "\n";
  }
  return os.str();
}

std::string FormatZoomIn(const core::ZoomInResult& zoom) {
  std::ostringstream os;
  os << (zoom.served_from_cache ? "[cache hit]" : "[re-executed]") << "\n";
  for (const core::ZoomInRowResult& row : zoom.rows) {
    os << "row " << row.row_index << " " << row.tuple.ToString() << " ["
       << row.component_label << "]: " << row.annotations.size()
       << " annotation(s)\n";
    for (const ann::Annotation& note : row.annotations) {
      os << "  - A" << note.id << " by " << note.author;
      if (note.archived) os << " [archived]";
      os << ": " << Ellipsize(note.title.empty() ? note.body : note.title + " — " + note.body, 100)
         << "\n";
    }
  }
  return os.str();
}

}  // namespace insightnotes::sql
