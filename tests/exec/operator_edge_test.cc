// Edge-case coverage for the summary-aware operators: duplicate join keys,
// NULL keys, sort stability, string aggregates, empty inputs, expression
// projections — plus the top-k LIMIT pushdown property suite (boundary
// k values, tie groups straddling the cut, the shared TopKBound protocol,
// and the no-ORDER-BY RowQuota with a late-publishing worker) and the
// batch contract: the root Next adapter agrees with NextBatch for every
// operator kind, empty batches never end iteration, LIMIT stops at batch
// granularity, and joins bound their output batches.

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/nested_loop_join.h"
#include "exec/parallel.h"
#include "exec/projection.h"
#include "exec/sort.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "testutil.h"

namespace insightnotes::exec {
namespace {

using core::AnnotatedTuple;
using testutil::Col;
using testutil::F;
using testutil::I;
using testutil::S;

class OperatorEdgeTest : public testutil::EngineFixture {
 protected:
  void SetUp() override {
    testutil::EngineFixture::SetUp();
    ASSERT_TRUE(engine_
                    ->CreateTable("L", rel::Schema({{"k", rel::ValueType::kInt64, "L"},
                                                    {"v", rel::ValueType::kString, "L"}}))
                    .ok());
    ASSERT_TRUE(engine_
                    ->CreateTable("R2", rel::Schema({{"k", rel::ValueType::kInt64, "R2"},
                                                     {"w", rel::ValueType::kString, "R2"}}))
                    .ok());
  }

  void Insert(const std::string& table, rel::Tuple tuple) {
    ASSERT_TRUE(engine_->Insert(table, std::move(tuple)).ok());
  }

  std::unique_ptr<Operator> Scan(const std::string& table, const std::string& alias) {
    auto scan = engine_->MakeScan(table, alias);
    EXPECT_TRUE(scan.ok());
    return std::move(*scan);
  }

  std::vector<AnnotatedTuple> Drain(Operator* op) {
    EXPECT_TRUE(op->Open().ok());
    std::vector<AnnotatedTuple> out;
    AnnotatedTuple t;
    while (true) {
      auto more = op->Next(&t);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      out.push_back(std::move(t));
      t = AnnotatedTuple();
    }
    return out;
  }

  /// Drain through NextBatch instead of the Next adapter; `sizes`, when
  /// given, receives every batch's row count (empty batches included).
  std::vector<AnnotatedTuple> DrainBatches(Operator* op,
                                           std::vector<size_t>* sizes = nullptr) {
    EXPECT_TRUE(op->Open().ok());
    std::vector<AnnotatedTuple> out;
    core::AnnotatedBatch batch;
    while (true) {
      auto more = op->NextBatch(&batch);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      if (sizes != nullptr) sizes->push_back(batch.tuples.size());
      for (AnnotatedTuple& t : batch.tuples) out.push_back(std::move(t));
    }
    return out;
  }

  /// Rows with their summaries and attachment ids, for byte comparisons.
  static std::vector<std::string> Render(const std::vector<AnnotatedTuple>& rows) {
    std::vector<std::string> out;
    for (const AnnotatedTuple& row : rows) {
      std::string line = row.tuple.ToString();
      for (const auto& summary : row.summaries) line += " | " + summary->Render();
      for (const auto& att : row.attachments) line += " #" + std::to_string(att.id);
      out.push_back(std::move(line));
    }
    return out;
  }
};

/// Emits scripted single-column batches verbatim, empty ones included.
class ScriptedBatches final : public Operator {
 public:
  explicit ScriptedBatches(std::vector<std::vector<int64_t>> batches)
      : batches_(std::move(batches)),
        schema_({{"k", rel::ValueType::kInt64, "t"}}) {}

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override { return "ScriptedBatches"; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override {
    if (next_ >= batches_.size()) return false;
    for (int64_t v : batches_[next_++]) out->tuples.emplace_back(rel::Tuple({I(v)}));
    return true;
  }

 private:
  std::vector<std::vector<int64_t>> batches_;
  rel::Schema schema_;
  size_t next_ = 0;
};

std::vector<int64_t> Keys(const std::vector<AnnotatedTuple>& rows) {
  std::vector<int64_t> keys;
  for (const AnnotatedTuple& row : rows) keys.push_back(row.tuple.ValueAt(0).AsInt64());
  return keys;
}

TEST_F(OperatorEdgeTest, HashJoinDuplicateKeysProduceCrossMatches) {
  Insert("L", rel::Tuple({I(1), S("l1")}));
  Insert("L", rel::Tuple({I(1), S("l2")}));
  Insert("R2", rel::Tuple({I(1), S("r1")}));
  Insert("R2", rel::Tuple({I(1), S("r2")}));
  Insert("R2", rel::Tuple({I(2), S("r3")}));
  auto left = Scan("L", "l");
  auto right = Scan("R2", "r");
  auto join = std::make_unique<HashJoinOperator>(
      std::move(left), std::move(right), rel::MakeColumn(0, "l.k"),
      rel::MakeColumn(0, "r.k"));
  auto rows = Drain(join.get());
  EXPECT_EQ(rows.size(), 4u);  // 2 x 2 on key 1.
}

TEST_F(OperatorEdgeTest, HashJoinNullKeysNeverJoin) {
  Insert("L", rel::Tuple({rel::Value::Null(), S("null-left")}));
  Insert("R2", rel::Tuple({rel::Value::Null(), S("null-right")}));
  Insert("L", rel::Tuple({I(5), S("five")}));
  Insert("R2", rel::Tuple({I(5), S("cinq")}));
  auto join = std::make_unique<HashJoinOperator>(
      Scan("L", "l"), Scan("R2", "r"), rel::MakeColumn(0, "l.k"),
      rel::MakeColumn(0, "r.k"));
  auto rows = Drain(join.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsString(), "five");
}

TEST_F(OperatorEdgeTest, HashJoinEmptyBuildSide) {
  Insert("L", rel::Tuple({I(1), S("x")}));
  auto join = std::make_unique<HashJoinOperator>(
      Scan("L", "l"), Scan("R2", "r"), rel::MakeColumn(0, "l.k"),
      rel::MakeColumn(0, "r.k"));
  EXPECT_TRUE(Drain(join.get()).empty());
}

TEST_F(OperatorEdgeTest, SortIsStable) {
  // Equal keys keep insertion order.
  for (int i = 0; i < 5; ++i) {
    Insert("L", rel::Tuple({I(7), S("row" + std::to_string(i))}));
  }
  std::vector<SortKey> keys;
  keys.push_back(SortKey{rel::MakeColumn(0, "k"), true});
  auto sort = std::make_unique<SortOperator>(Scan("L", "l"), std::move(keys));
  auto rows = Drain(sort.get());
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i].tuple.ValueAt(1).AsString(), "row" + std::to_string(i));
  }
}

TEST_F(OperatorEdgeTest, SortNullsFirst) {
  Insert("L", rel::Tuple({I(2), S("b")}));
  Insert("L", rel::Tuple({rel::Value::Null(), S("n")}));
  Insert("L", rel::Tuple({I(1), S("a")}));
  std::vector<SortKey> keys;
  keys.push_back(SortKey{rel::MakeColumn(0, "k"), true});
  auto sort = std::make_unique<SortOperator>(Scan("L", "l"), std::move(keys));
  auto rows = Drain(sort.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].tuple.ValueAt(0).is_null());
  EXPECT_EQ(rows[1].tuple.ValueAt(0).AsInt64(), 1);
}

TEST_F(OperatorEdgeTest, LimitBeyondInputSize) {
  Insert("L", rel::Tuple({I(1), S("only")}));
  auto limit = std::make_unique<LimitOperator>(Scan("L", "l"), 100);
  EXPECT_EQ(Drain(limit.get()).size(), 1u);
}

TEST_F(OperatorEdgeTest, MinMaxOverStrings) {
  Insert("L", rel::Tuple({I(1), S("pear")}));
  Insert("L", rel::Tuple({I(2), S("apple")}));
  Insert("L", rel::Tuple({I(3), S("quince")}));
  std::vector<AggregateItem> aggs;
  aggs.push_back(AggregateItem{AggregateFunction::kMin, rel::MakeColumn(1, "v"), "lo"});
  aggs.push_back(AggregateItem{AggregateFunction::kMax, rel::MakeColumn(1, "v"), "hi"});
  auto agg = std::make_unique<AggregateOperator>(Scan("L", "l"),
                                                 std::vector<rel::ExprPtr>{},
                                                 std::vector<rel::Column>{},
                                                 std::move(aggs));
  auto rows = Drain(agg.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsString(), "apple");
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsString(), "quince");
}

TEST_F(OperatorEdgeTest, AggregateIgnoresNulls) {
  Insert("L", rel::Tuple({I(10), S("a")}));
  Insert("L", rel::Tuple({rel::Value::Null(), S("b")}));
  std::vector<AggregateItem> aggs;
  aggs.push_back(AggregateItem{AggregateFunction::kCount, rel::MakeColumn(0, "k"), "c"});
  aggs.push_back(AggregateItem{AggregateFunction::kSum, rel::MakeColumn(0, "k"), "s"});
  aggs.push_back(AggregateItem{AggregateFunction::kCountStar, nullptr, "n"});
  auto agg = std::make_unique<AggregateOperator>(Scan("L", "l"),
                                                 std::vector<rel::ExprPtr>{},
                                                 std::vector<rel::Column>{},
                                                 std::move(aggs));
  auto rows = Drain(agg.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 1);   // COUNT(k) skips NULL.
  EXPECT_EQ(rows[0].tuple.ValueAt(1).AsInt64(), 10);  // SUM skips NULL.
  EXPECT_EQ(rows[0].tuple.ValueAt(2).AsInt64(), 2);   // COUNT(*) does not.
}

TEST_F(OperatorEdgeTest, DistinctOnEmptyInput) {
  auto distinct = std::make_unique<DistinctOperator>(Scan("L", "l"));
  EXPECT_TRUE(Drain(distinct.get()).empty());
}

TEST_F(OperatorEdgeTest, DistinctTreatsNullsEqual) {
  Insert("L", rel::Tuple({rel::Value::Null(), S("x")}));
  Insert("L", rel::Tuple({rel::Value::Null(), S("x")}));
  auto distinct = std::make_unique<DistinctOperator>(Scan("L", "l"));
  EXPECT_EQ(Drain(distinct.get()).size(), 1u);
}

TEST_F(OperatorEdgeTest, ProjectionWithComputedExpression) {
  Insert("L", rel::Tuple({I(21), S("x")}));
  std::vector<ProjectionItem> items;
  ProjectionItem item;
  item.expr = rel::MakeArithmetic(rel::ArithmeticOp::kMul, rel::MakeColumn(0, "k"),
                                  rel::MakeLiteral(I(2)));
  item.output_name = "doubled";
  items.push_back(std::move(item));
  auto project = std::make_unique<ProjectOperator>(Scan("L", "l"), std::move(items));
  auto rows = Drain(project.get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].tuple.ValueAt(0).AsInt64(), 42);
  EXPECT_EQ(project->OutputSchema().ColumnAt(0).name, "doubled");
}

// ---- Top-K LIMIT pushdown properties ----

class TopKPropertyTest : public OperatorEdgeTest {
 protected:
  /// 40 rows in 4 tie groups of 10 on k (0,0,...,1,1,...), v records the
  /// insertion order so stable-tie order is observable byte for byte.
  void FillTieGroups() {
    for (int i = 0; i < 40; ++i) {
      Insert("L", rel::Tuple({I(i / 10), S("row" + std::to_string(i))}));
    }
  }

  std::vector<std::string> RunSql(const std::string& sql_text, size_t parallelism,
                                  size_t morsel_size = 4) {
    auto statement = sql::Parse(sql_text);
    EXPECT_TRUE(statement.ok()) << statement.status().ToString();
    auto* select = std::get_if<sql::SelectStatement>(&*statement);
    EXPECT_NE(select, nullptr);
    sql::PlannerOptions options;
    options.parallelism = parallelism;
    options.morsel_size = morsel_size;
    auto plan = sql::PlanSelect(*select, engine_.get(), options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = engine_->Execute(std::move(*plan));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> rows;
    if (result.ok()) {
      for (const auto& row : result->rows) rows.push_back(row.tuple.ToString());
    }
    return rows;
  }

  void ExpectSerialParallelEqual(const std::string& sql_text) {
    SCOPED_TRACE(sql_text);
    std::vector<std::string> serial = RunSql(sql_text, 1);
    for (size_t parallelism : {2u, 4u, 8u}) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
      EXPECT_EQ(serial, RunSql(sql_text, parallelism));
    }
  }
};

TEST_F(TopKPropertyTest, OrderByLimitBoundaryValues) {
  FillTieGroups();
  // k = 0, 1, n-1, n, and beyond n (n = 40).
  for (int k : {0, 1, 39, 40, 100}) {
    ExpectSerialParallelEqual("SELECT l.k, l.v FROM L l ORDER BY l.k LIMIT " +
                              std::to_string(k));
  }
}

TEST_F(TopKPropertyTest, DuplicateKeysStraddlingTheBoundary) {
  FillTieGroups();
  // LIMIT 15 cuts through the second tie group (rows 10..19 share k = 1):
  // the kept ties must be the first 5 of the group in insertion order.
  std::vector<std::string> rows =
      RunSql("SELECT l.v FROM L l ORDER BY l.k LIMIT 15", 8);
  ASSERT_EQ(rows.size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(rows[i], rel::Tuple({S("row" + std::to_string(i))}).ToString());
  }
  ExpectSerialParallelEqual("SELECT l.v FROM L l ORDER BY l.k LIMIT 15");
  ExpectSerialParallelEqual("SELECT l.v FROM L l ORDER BY l.k DESC LIMIT 15");
}

TEST_F(TopKPropertyTest, LimitUnderDistinctAndAggregation) {
  FillTieGroups();
  // DISTINCT dedups between sort and limit, so the planner must NOT push
  // the limit into the sort; the result must still match serial.
  ExpectSerialParallelEqual("SELECT DISTINCT l.k FROM L l ORDER BY l.k LIMIT 2");
  ExpectSerialParallelEqual("SELECT DISTINCT l.k FROM L l LIMIT 3");
  ExpectSerialParallelEqual(
      "SELECT l.k, COUNT(*) FROM L l GROUP BY l.k ORDER BY l.k LIMIT 2");
  ExpectSerialParallelEqual("SELECT l.k, COUNT(*) FROM L l GROUP BY l.k LIMIT 2");
}

TEST_F(TopKPropertyTest, NoOrderByQuotaTakesSerialPrefix) {
  FillTieGroups();
  // Plain LIMIT: serial semantics are the first k rows in insertion order;
  // the quota-stopped parallel scan must produce exactly those.
  for (int k : {0, 1, 7, 39, 40, 100}) {
    ExpectSerialParallelEqual("SELECT l.k, l.v FROM L l LIMIT " + std::to_string(k));
  }
  std::vector<std::string> rows = RunSql("SELECT l.v FROM L l LIMIT 7", 8);
  ASSERT_EQ(rows.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rows[i], rel::Tuple({S("row" + std::to_string(i))}).ToString());
  }
}

TEST_F(TopKPropertyTest, TopKBoundTightensMonotonically) {
  TopKBound bound(2, {true});
  ASSERT_TRUE(bound.Reset().ok());
  uint64_t version = 0;
  SortRunEntry seen;
  EXPECT_FALSE(bound.Refresh(&version, &seen));  // Nothing published yet.

  SortRunEntry first;
  first.keys = {I(5)};
  first.morsel = 0;
  first.pos = 3;
  EXPECT_TRUE(bound.Tighten(first));
  EXPECT_TRUE(bound.Refresh(&version, &seen));
  EXPECT_EQ(seen.keys[0].AsInt64(), 5);
  EXPECT_EQ(seen.pos, 3u);
  EXPECT_FALSE(bound.Refresh(&version, &seen));  // Version unchanged.

  SortRunEntry worse;
  worse.keys = {I(9)};
  EXPECT_FALSE(bound.Tighten(worse));  // Only strict tightening is kept.
  EXPECT_FALSE(bound.Refresh(&version, &seen));

  SortRunEntry tie_better;  // Same key, earlier serial rank: tighter.
  tie_better.keys = {I(5)};
  tie_better.morsel = 0;
  tie_better.pos = 1;
  EXPECT_TRUE(bound.Tighten(tie_better));
  SortRunEntry better;
  better.keys = {I(3)};
  EXPECT_TRUE(bound.Tighten(better));
  EXPECT_TRUE(bound.Refresh(&version, &seen));
  EXPECT_EQ(seen.keys[0].AsInt64(), 3);

  ASSERT_TRUE(bound.Reset().ok());  // Re-execution starts unbounded.
  version = 0;
  EXPECT_FALSE(bound.Refresh(&version, &seen));
}

TEST_F(TopKPropertyTest, RowQuotaWaitsForLatePublisher) {
  RowQuota quota(10);
  ASSERT_TRUE(quota.Reset().ok());
  EXPECT_FALSE(quota.Satisfied());
  // Later morsels complete first: plenty of rows, but the prefix is
  // blocked on morsel 0, still owned by a slow worker.
  quota.OnMorselDone(1, 6);
  quota.OnMorselDone(2, 6);
  quota.OnMorselDone(4, 100);
  EXPECT_FALSE(quota.Satisfied());
  // The late worker publishes morsel 0: prefix = morsels 0..2 with
  // 4 + 6 + 6 >= 10 rows (morsel 4 stays outside the contiguous prefix).
  quota.OnMorselDone(0, 4);
  EXPECT_TRUE(quota.Satisfied());

  RowQuota zero(0);
  ASSERT_TRUE(zero.Reset().ok());
  EXPECT_TRUE(zero.Satisfied());  // LIMIT 0 never dispatches anything.

  ASSERT_TRUE(quota.Reset().ok());
  EXPECT_FALSE(quota.Satisfied());  // Reset rearms the quota.
}

// ---- Batch contract ----

void CollectNames(Operator* op, std::set<std::string>* names) {
  std::string name = op->Name();
  // The operator kind: the name up to its first non-letter.
  names->insert(name.substr(
      0, name.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")));
  for (Operator* child : op->Children()) CollectNames(child, names);
}

TEST_F(OperatorEdgeTest, NextAdapterAgreesWithNextBatchForEveryOperatorKind) {
  CreateFigure2Tables();
  CreateFigure2Instances();
  // Enough rows for several batches and morsels, every fifth annotated.
  for (int64_t i = 0; i < 600; ++i) {
    std::string c = "c", d = "d";
    Insert("R", rel::Tuple({I(10 + i), I(i % 7), S(c += std::to_string(i % 11)),
                            S(d += std::to_string(i))}));
  }
  for (int64_t i = 0; i < 40; ++i) {
    Insert("S", rel::Tuple({I(10 + 3 * i), S("y" + std::to_string(i % 3)), S("z")}));
  }
  const char* bodies[] = {"eating stonewort", "influenza infection",
                          "wingspan is large", "wikipedia photo link"};
  for (rel::RowId row = 0; row < 600; row += 5) {
    std::vector<size_t> columns;
    if (row % 2 == 1) columns.push_back(2);
    ASSERT_TRUE(engine_->Annotate(Spec("R", row, bodies[row % 4], columns)).ok());
  }
  for (int64_t i = 0; i < 30; ++i) {
    Insert("L", rel::Tuple({I(11 + 7 * i), S(i == 4 ? "hit" : "miss")}));
  }
  ASSERT_TRUE(engine_->CreateIndex("R", "b").ok());
  for (const char* table : {"R", "S", "L"}) ASSERT_TRUE(engine_->Analyze(table).ok());

  const std::vector<std::string> queries = {
      "SELECT * FROM R r",
      "SELECT r.a, r.c FROM R r WHERE r.b = 3",
      "SELECT r.a FROM R r WHERE SUMMARY_COUNT(ClassBird1) > 0",
      "SELECT r.a, r.b FROM R r ORDER BY r.b DESC, r.a",
      "SELECT r.a FROM R r ORDER BY SUMMARY_COUNT(ClassBird1) DESC",
      "SELECT r.a FROM R r LIMIT 300",
      "SELECT r.b, COUNT(*), MIN(r.c) FROM R r GROUP BY r.b",
      "SELECT DISTINCT r.c FROM R r",
      "SELECT r.a, s.y FROM R r, S s WHERE r.a = s.x",
      "SELECT s.y, r.a FROM S s, R r WHERE s.x = r.a AND r.b < 3",
      "SELECT r.a, s.x FROM R r, S s WHERE r.b = 6 AND s.x < 25",
      // Statistics make the optimizer join L first: a reordered plan.
      "SELECT r.a, s.y, l.v FROM R r, S s, L l "
      "WHERE r.b = s.x AND r.a = l.k AND l.v = 'hit'",
  };
  std::set<std::string> kinds;
  for (const std::string& sql_text : queries) {
    for (bool optimize : {false, true}) {
      for (size_t parallelism : {1u, 4u}) {
        SCOPED_TRACE(sql_text + " optimize=" + std::to_string(optimize) +
                     " p=" + std::to_string(parallelism));
        auto statement = sql::Parse(sql_text);
        ASSERT_TRUE(statement.ok()) << statement.status().ToString();
        sql::PlannerOptions options;
        options.optimize = optimize;
        options.parallelism = parallelism;
        options.morsel_size = 64;
        auto plan = sql::PlanSelect(std::get<sql::SelectStatement>(*statement),
                                    engine_.get(), options);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        CollectNames(plan->get(), &kinds);
        std::vector<std::string> tuples = Render(Drain(plan->get()));
        EXPECT_FALSE(tuples.empty());
        // A second Open replays the same rows, this time batch by batch.
        EXPECT_EQ(tuples, Render(DrainBatches(plan->get())));
      }
    }
  }
  for (const char* kind :
       {"SeqScan", "IndexScan", "Filter", "Project", "SummaryFilter", "SummarySort",
        "Sort", "Limit", "Aggregate", "Distinct", "HashJoin", "NestedLoopJoin",
        "RestoreOrder", "Gather", "MorselScan", "HashJoinProbe", "PartialSort",
        "SortMerge", "PartialAggregate", "AggregateMerge", "PartialDistinct",
        "DistinctMerge"}) {
    EXPECT_TRUE(kinds.count(kind)) << "no plan exercised " << kind << " in "
                                   << ::testing::PrintToString(kinds);
  }
}

TEST_F(OperatorEdgeTest, EmptyBatchesMidStreamDoNotEndIteration) {
  const std::vector<std::vector<int64_t>> script = {{}, {1, 2}, {}, {}, {3}, {}, {4}};
  auto source = [&] { return std::make_unique<ScriptedBatches>(script); };
  EXPECT_EQ(Keys(Drain(source().get())), (std::vector<int64_t>{1, 2, 3, 4}));

  // k >= 3 filters the whole {1, 2} batch: an empty output batch mid-stream.
  FilterOperator filter(source(),
                        rel::MakeCompare(rel::CompareOp::kGe, rel::MakeColumn(0, "k"),
                                         rel::MakeLiteral(I(3))));
  EXPECT_EQ(Keys(Drain(&filter)), (std::vector<int64_t>{3, 4}));
  LimitOperator limit(source(), 3);
  EXPECT_EQ(Keys(Drain(&limit)), (std::vector<int64_t>{1, 2, 3}));
  std::vector<SortKey> keys;
  keys.push_back(SortKey{rel::MakeColumn(0, "k"), false});
  SortOperator sort(source(), std::move(keys));
  EXPECT_EQ(Keys(Drain(&sort)), (std::vector<int64_t>{4, 3, 2, 1}));
  HashJoinOperator join(source(), source(), rel::MakeColumn(0, "k"),
                        rel::MakeColumn(0, "k"));
  EXPECT_EQ(Keys(Drain(&join)), (std::vector<int64_t>{1, 2, 3, 4}));
  NestedLoopJoinOperator nested(source(), source(),
                                rel::MakeCompare(rel::CompareOp::kEq,
                                                 rel::MakeColumn(0, "l.k"),
                                                 rel::MakeColumn(1, "r.k")));
  EXPECT_EQ(Keys(Drain(&nested)), (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(OperatorEdgeTest, LimitStopsAtBatchGranularity) {
  const std::vector<std::vector<int64_t>> script = {{1, 2, 3}, {4, 5, 6}, {7}};
  struct Case {
    size_t limit;
    std::vector<int64_t> rows;
    uint64_t child_batches;  // Batches the limit may pull from its child.
  };
  for (const Case& c : std::vector<Case>{{0, {}, 0},          // Never pulls.
                                         {2, {1, 2}, 1},      // Inside a batch.
                                         {3, {1, 2, 3}, 1},   // At a boundary.
                                         {100, {1, 2, 3, 4, 5, 6, 7}, 3}}) {
    SCOPED_TRACE("limit=" + std::to_string(c.limit));
    auto child = std::make_unique<ScriptedBatches>(script);
    ScriptedBatches* source = child.get();
    LimitOperator limit(std::move(child), c.limit);
    EXPECT_EQ(Keys(Drain(&limit)), c.rows);
    EXPECT_EQ(source->metrics().batches_out, c.child_batches);
    EXPECT_EQ(Keys(DrainBatches(&limit)), c.rows);
  }
}

TEST_F(OperatorEdgeTest, SerialJoinsBoundOutputBatches) {
  // Two join keys: every probe batch fans out to 600 matches in total.
  for (int64_t i = 0; i < 40; ++i) Insert("L", rel::Tuple({I(i % 2), S("l")}));
  for (int64_t i = 0; i < 30; ++i) Insert("R2", rel::Tuple({I(i % 2), S("r")}));
  std::vector<std::function<std::unique_ptr<Operator>()>> joins = {
      [&] {
        return std::make_unique<NestedLoopJoinOperator>(
            Scan("L", "l"), Scan("R2", "r"), rel::MakeLiteral(I(1)));
      },
      [&] {
        return std::make_unique<HashJoinOperator>(Scan("L", "l"), Scan("R2", "r"),
                                                  rel::MakeColumn(0, "l.k"),
                                                  rel::MakeColumn(0, "r.k"));
      }};
  for (size_t j = 0; j < joins.size(); ++j) {
    auto join = joins[j]();
    SCOPED_TRACE(join->Name());
    std::vector<size_t> sizes;
    std::vector<std::string> batched = Render(DrainBatches(join.get(), &sizes));
    ASSERT_EQ(batched.size(), j == 0 ? 40u * 30u : 600u);
    for (size_t size : sizes) EXPECT_LE(size, kDefaultBatchSize);
    EXPECT_GT(sizes.size(), 1u);
    EXPECT_EQ(batched, Render(Drain(joins[j]().get())));
  }
}

TEST_F(OperatorEdgeTest, FilterTypeErrorSurfaces) {
  Insert("L", rel::Tuple({I(1), S("x")}));
  // Comparing a string column with an int literal is a type error.
  auto filter = std::make_unique<FilterOperator>(
      Scan("L", "l"), rel::MakeCompare(rel::CompareOp::kEq, rel::MakeColumn(1, "v"),
                                       rel::MakeLiteral(I(1))));
  ASSERT_TRUE(filter->Open().ok());
  AnnotatedTuple t;
  auto more = filter->Next(&t);
  EXPECT_TRUE(more.status().IsTypeError());
}

}  // namespace
}  // namespace insightnotes::exec
