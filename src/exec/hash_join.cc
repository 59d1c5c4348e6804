#include "exec/hash_join.h"

#include <future>

namespace insightnotes::exec {

HashJoinBuildState::HashJoinBuildState(std::unique_ptr<Operator> input,
                                       rel::ExprPtr key, size_t num_partitions,
                                       ThreadPool* pool)
    : input_(std::move(input)),
      key_(std::move(key)),
      key_name_(key_->ToString()),
      num_partitions_(std::max<size_t>(1, num_partitions)),
      pool_(pool) {}

void HashJoinBuildState::AttachQueryContext(
    std::shared_ptr<QueryContext> context) {
  if (input_ != nullptr) input_->SetQueryContext(context);
  build_reservation_.Attach(
      context != nullptr ? &context->budget() : nullptr,
      "HashJoinBuild(" + key_name_ + ")");
  context_ = std::move(context);
}

Status HashJoinBuildState::Reset() {
  rows_.clear();
  keys_.clear();
  hashes_.clear();
  build_reservation_.ReleaseAll();
  INSIGHTNOTES_RETURN_IF_ERROR(input_->Open());
  rows_.reserve(input_->EstimatedRows());
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&batch));
    if (!more) break;
    // Batch-granular charge: an over-budget build aborts here with
    // kResourceExhausted naming this operator, before the table finishes
    // materializing.
    INSIGHTNOTES_RETURN_IF_ERROR(
        build_reservation_.Charge(core::ApproxBytes(batch)));
    for (core::AnnotatedTuple& tuple : batch.tuples) {
      rows_.push_back(std::move(tuple));
    }
  }
  keys_.reserve(rows_.size());
  hashes_.reserve(rows_.size());
  // Keys, hashes and the partition-map entries (bucket + index slot each).
  INSIGHTNOTES_RETURN_IF_ERROR(build_reservation_.Charge(
      rows_.size() * (sizeof(rel::Value) + 4 * sizeof(size_t))));
  rel::ValueHash hasher;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if ((i & 1023u) == 0 && context_ != nullptr) {
      INSIGHTNOTES_RETURN_IF_ERROR(context_->CheckInterrupt());
    }
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value key, key_->Evaluate(rows_[i].tuple));
    hashes_.push_back(key.is_null() ? 0 : hasher(key));
    keys_.push_back(std::move(key));
  }
  partitions_.assign(num_partitions_, PartitionMap{});
  // Each partition is filled by exactly one worker scanning the rows in
  // input order, so match lists come out in build-insertion order and the
  // per-partition maps need no synchronization.
  auto build_partition = [this](size_t p) -> Status {
    PartitionMap& partition = partitions_[p];
    for (size_t i = 0; i < rows_.size(); ++i) {
      if ((i & 4095u) == 0 && context_ != nullptr) {
        INSIGHTNOTES_RETURN_IF_ERROR(context_->CheckInterrupt());
      }
      if (keys_[i].is_null()) continue;  // NULL keys never join.
      if (hashes_[i] % num_partitions_ != p) continue;
      partition[keys_[i]].push_back(i);
    }
    return Status::OK();
  };
  if (pool_ == nullptr || num_partitions_ == 1) {
    for (size_t p = 0; p < num_partitions_; ++p) {
      INSIGHTNOTES_RETURN_IF_ERROR(build_partition(p));
    }
  } else {
    std::vector<std::future<Status>> futures;
    futures.reserve(num_partitions_);
    for (size_t p = 0; p < num_partitions_; ++p) {
      futures.push_back(pool_->Submit([build_partition, p]() -> Status {
        try {
          return build_partition(p);
        } catch (const std::exception& e) {
          return Status::Internal(std::string("partition build threw: ") +
                                  e.what());
        } catch (...) {
          return Status::Internal("partition build threw a non-standard exception");
        }
      }));
    }
    // Join every future before returning: the jobs reference this state.
    Status first_error;
    for (auto& future : futures) {
      Status status;
      try {
        status = future.get();
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("partition build lost: ") + e.what());
      } catch (...) {
        status = Status::Internal("partition build lost: unknown exception");
      }
      if (first_error.ok() && !status.ok()) first_error = std::move(status);
    }
    INSIGHTNOTES_RETURN_IF_ERROR(first_error);
  }
  return Status::OK();
}

const std::vector<size_t>* HashJoinBuildState::Find(const rel::Value& key) const {
  if (key.is_null()) return nullptr;
  rel::ValueHash hasher;
  const PartitionMap& partition = partitions_[hasher(key) % num_partitions_];
  auto it = partition.find(key);
  return it == partition.end() ? nullptr : &it->second;
}

HashJoinProbeOperator::HashJoinProbeOperator(std::unique_ptr<Operator> child,
                                             std::shared_ptr<HashJoinBuildState> state,
                                             rel::ExprPtr probe_key, bool expose_build)
    : state_(std::move(state)),
      child_(std::move(child)),
      probe_key_(std::move(probe_key)),
      expose_build_(expose_build),
      schema_(rel::Schema::Concat(child_->OutputSchema(), state_->schema())) {}

std::string HashJoinProbeOperator::Condition() const {
  return probe_key_->ToString() + " = " + state_->key_name();
}

std::string HashJoinProbeOperator::Name() const {
  return "HashJoinProbe(" + Condition() + ")";
}

std::vector<Operator*> HashJoinProbeOperator::Children() {
  if (expose_build_) return {child_.get(), state_->input()};
  return {child_.get()};
}

Status HashJoinProbeOperator::OpenImpl() {
  // The shared build state is reset by the GatherOperator, not here.
  in_.Clear();
  in_pos_ = 0;
  metrics_.build_partitions = state_->num_partitions();
  return child_->Open();
}

Result<bool> HashJoinProbeOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  if (in_pos_ >= in_.tuples.size()) {  // The previous probe batch is done.
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    if (!more) return false;
    in_pos_ = 0;
    match_pos_ = 0;
  }
  out->morsel = in_.morsel;
  for (; in_pos_ < in_.tuples.size(); ++in_pos_, match_pos_ = 0) {
    const core::AnnotatedTuple& left = in_.tuples[in_pos_];
    INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value key, probe_key_->Evaluate(left.tuple));
    const std::vector<size_t>* matches = state_->Find(key);
    if (matches == nullptr) continue;
    for (; match_pos_ < matches->size(); ++match_pos_) {
      if (out->tuples.size() >= max_batch_rows_) return true;
      core::AnnotatedTuple& joined = out->tuples.emplace_back(left.Clone());
      INSIGHTNOTES_RETURN_IF_ERROR(
          core::MergeAnnotatedTuples(&joined, state_->Row((*matches)[match_pos_])));
      Trace(joined);
    }
  }
  return true;
}

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> left,
                                   std::unique_ptr<Operator> right,
                                   rel::ExprPtr left_key, rel::ExprPtr right_key)
    : HashJoinProbeOperator(
          std::move(left),
          std::make_shared<HashJoinBuildState>(std::move(right), std::move(right_key),
                                               /*num_partitions=*/1,
                                               /*pool=*/nullptr),
          std::move(left_key), /*expose_build=*/true) {
  max_batch_rows_ = kDefaultBatchSize;
}

Status HashJoinOperator::OpenImpl() {
  INSIGHTNOTES_RETURN_IF_ERROR(HashJoinProbeOperator::OpenImpl());
  return state_->Reset();
}

std::string HashJoinOperator::Name() const {
  return "HashJoin(" + Condition() + ")";
}

}  // namespace insightnotes::exec
