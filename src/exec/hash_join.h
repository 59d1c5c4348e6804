// Hash equi-join with summary merge (Figure 2 step 3): for each matching
// pair, counterpart summary objects of the two inputs are combined without
// double counting shared annotations; objects without a counterpart
// propagate unchanged.
//
// The build side lives in a HashJoinBuildState: the input is materialized
// once in input order, then partitioned by hash(key) % P — each partition
// built by one worker, lock-free — and probed partition-wise. Because the
// partition maps store *indexes into the ordered row vector*, appended by
// a single worker scanning in input order, each key's match list is in
// serial build-insertion order regardless of P: probes produce exactly the
// serial operator's output. The serial HashJoinOperator is a
// HashJoinProbeOperator over a single-partition state it owns and resets
// at Open; the parallel planner shares one multi-partition state across P
// HashJoinProbeOperators (see exec/parallel.h).

#ifndef INSIGHTNOTES_EXEC_HASH_JOIN_H_
#define INSIGHTNOTES_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "exec/parallel.h"
#include "rel/expression.h"
#include "rel/index.h"  // ValueHash, ValueEq.

namespace insightnotes::exec {

/// Materialized, partitioned build side of a hash join. Reset drains the
/// build input (serially — it owns the buffer-pool access), then builds
/// the partitions, one pool job per partition when a pool is given.
/// Find/Row are safe for concurrent readers once Reset returned.
class HashJoinBuildState final : public SharedPlanState {
 public:
  /// `num_partitions` >= 1; `pool` may be null (partitions built inline).
  HashJoinBuildState(std::unique_ptr<Operator> input, rel::ExprPtr key,
                     size_t num_partitions, ThreadPool* pool);

  Status Reset() override;
  /// Forwards the context into the build input subtree and arms this
  /// state's memory reservation (label "HashJoinBuild(<key>)").
  void AttachQueryContext(std::shared_ptr<QueryContext> context) override;

  /// Match row indexes for `key` in build-input order; null when none.
  /// NULL keys never match.
  const std::vector<size_t>* Find(const rel::Value& key) const;

  const core::AnnotatedTuple& Row(size_t index) const { return rows_[index]; }
  const rel::Schema& schema() const { return input_->OutputSchema(); }
  const std::string& key_name() const { return key_name_; }
  size_t num_partitions() const { return num_partitions_; }
  Operator* input() { return input_.get(); }

 private:
  using PartitionMap = std::unordered_map<rel::Value, std::vector<size_t>,
                                          rel::ValueHash, rel::ValueEq>;

  std::unique_ptr<Operator> input_;
  rel::ExprPtr key_;
  std::string key_name_;
  size_t num_partitions_;
  ThreadPool* pool_;

  std::shared_ptr<QueryContext> context_;  // Nullable.
  MemoryReservation build_reservation_;    // Charges rows_/keys_/partitions_.

  std::vector<core::AnnotatedTuple> rows_;  // Build input, input order.
  std::vector<rel::Value> keys_;            // Key per row (may be NULL).
  std::vector<size_t> hashes_;              // ValueHash per row.
  std::vector<PartitionMap> partitions_;
};

/// Probe stage over a shared (or owned) build state. Used per worker
/// pipeline by the parallel planner; Open does NOT reset the state (the
/// GatherOperator resets each shared state exactly once). Inside a
/// parallel section each probe batch yields exactly one output batch with
/// the same morsel tag, as the gather and the partial operators above it
/// require, however many matches it has.
class HashJoinProbeOperator : public Operator {
 public:
  /// `expose_build` lists the build input as a child (exactly one probe
  /// per shared state should, so trace/metrics visit the build once).
  HashJoinProbeOperator(std::unique_ptr<Operator> child,
                        std::shared_ptr<HashJoinBuildState> state,
                        rel::ExprPtr probe_key, bool expose_build);

  const rel::Schema& OutputSchema() const override { return schema_; }
  std::string Name() const override;
  std::vector<Operator*> Children() override;
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }
  /// Also arms the shared build state when this probe exposes the build
  /// (exactly one probe per state does, so the state is attached once even
  /// when the gather does not know about it).
  void SetQueryContext(std::shared_ptr<QueryContext> context) override {
    Operator::SetQueryContext(context);
    if (expose_build_) state_->AttachQueryContext(context_);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

  /// "probe_key = build_key", the Name() argument of both join forms.
  std::string Condition() const;

  std::shared_ptr<HashJoinBuildState> state_;
  /// Output rows per batch before the probe cuts it and resumes at the
  /// next call; unbounded keeps the one-batch-per-morsel mapping.
  size_t max_batch_rows_ = SIZE_MAX;

 private:
  std::unique_ptr<Operator> child_;
  rel::ExprPtr probe_key_;
  bool expose_build_;
  rel::Schema schema_;

  core::AnnotatedBatch in_;  // Current probe batch.
  size_t in_pos_ = 0;        // Probe tuple being joined.
  size_t match_pos_ = 0;     // Next match for it.
};

/// Serial hash join: the probe stage over a single-partition build state
/// it owns, built from `right` at every Open. Outside a parallel section
/// no morsel mapping has to hold, so it cuts its output at
/// kDefaultBatchSize rows, like the nested-loop join: a high fan-out key
/// never materializes one probe batch's matches at once.
class HashJoinOperator final : public HashJoinProbeOperator {
 public:
  /// Joins on left_key == right_key (each evaluated against its side).
  HashJoinOperator(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
                   rel::ExprPtr left_key, rel::ExprPtr right_key);

  std::string Name() const override;

 protected:
  Status OpenImpl() override;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_HASH_JOIN_H_
