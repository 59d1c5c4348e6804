#include "exec/distinct.h"

#include <algorithm>
#include <unordered_map>

#include "common/clock.h"

namespace insightnotes::exec {

namespace {

struct TupleHash {
  size_t operator()(const rel::Tuple& t) const {
    return static_cast<size_t>(t.Hash());
  }
};
using TupleIndex = std::unordered_map<rel::Tuple, size_t, TupleHash>;

}  // namespace

Status DistinctOperator::OpenImpl() {
  INSIGHTNOTES_RETURN_IF_ERROR(child_->Open());
  results_.Clear();
  ReleaseMemory();
  std::vector<core::AnnotatedTuple>& rows = results_.rows;
  TupleIndex index;
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    for (core::AnnotatedTuple& in : batch.tuples) {
      auto [it, inserted] = index.emplace(in.tuple, rows.size());
      if (inserted) {
        INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(core::ApproxBytes(in)));
        rows.push_back(std::move(in));
      } else {
        INSIGHTNOTES_RETURN_IF_ERROR(core::MergeForGrouping(&rows[it->second], in));
      }
    }
  }
  return Status::OK();
}

Status PartialDistinctState::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  partials_.clear();
  return Status::OK();
}

void PartialDistinctState::Publish(MorselPartial&& partial) {
  std::lock_guard<std::mutex> lock(mutex_);
  partials_.push_back(std::move(partial));
}

std::vector<PartialDistinctState::MorselPartial> PartialDistinctState::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(partials_);
}

Result<bool> PartialDistinctOperator::NextBatchImpl(core::AnnotatedBatch*) {
  // Drain the pipeline: each child batch is one morsel, collapsed into its
  // own local distinct set.
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    if (batch.tuples.empty()) continue;  // Fully filtered morsel.
    PartialDistinctState::MorselPartial partial;
    partial.morsel = batch.morsel;
    TupleIndex index;
    index.reserve(batch.tuples.size());
    for (core::AnnotatedTuple& in : batch.tuples) {
      auto [it, inserted] = index.emplace(in.tuple, partial.entries.size());
      if (inserted) {
        PartialDistinctState::Entry entry;
        entry.tuple = std::move(in.tuple);
        entry.summary.Seed(&in, /*whole_row=*/false, /*reserve_hint=*/0);
        partial.entries.push_back(std::move(entry));
      } else {
        INSIGHTNOTES_RETURN_IF_ERROR(partial.entries[it->second].summary.Fold(in));
      }
    }
    metrics_.partial_groups += partial.entries.size();
    size_t partial_bytes = 0;
    for (const PartialDistinctState::Entry& entry : partial.entries) {
      partial_bytes += core::ApproxBytes(entry.tuple) + 256;
    }
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(partial_bytes));
    sink_->Publish(std::move(partial));
  }
  return false;  // Distinct sets surface via the sink, not as batches.
}

Status DistinctMergeOperator::OpenImpl() {
  results_.Clear();
  INSIGHTNOTES_RETURN_IF_ERROR(child_->Open());
  std::vector<PartialDistinctState::MorselPartial> partials = source_->Take();
  Stopwatch watch;
  std::sort(partials.begin(), partials.end(),
            [](const PartialDistinctState::MorselPartial& a,
               const PartialDistinctState::MorselPartial& b) {
              return a.morsel < b.morsel;
            });
  std::vector<PartialDistinctState::Entry> merged;  // First-seen order.
  TupleIndex index;
  for (PartialDistinctState::MorselPartial& partial : partials) {
    for (PartialDistinctState::Entry& entry : partial.entries) {
      auto [it, inserted] = index.emplace(entry.tuple, merged.size());
      if (inserted) {
        merged.push_back(std::move(entry));
      } else {
        INSIGHTNOTES_RETURN_IF_ERROR(
            merged[it->second].summary.Combine(std::move(entry.summary)));
      }
    }
  }
  if (metrics_enabled_) {
    metrics_.merge_ns += static_cast<uint64_t>(watch.ElapsedNanos());
  }
  results_.rows.reserve(merged.size());
  for (PartialDistinctState::Entry& entry : merged) {
    entry.summary.Release(&results_.rows.emplace_back(std::move(entry.tuple)));
  }
  return Status::OK();
}

}  // namespace insightnotes::exec
