#include "exec/sort.h"

#include <algorithm>
#include <queue>

#include "common/clock.h"
#include "rel/index.h"

namespace insightnotes::exec {

Status SortOperator::OpenImpl() {
  INSIGHTNOTES_RETURN_IF_ERROR(child_->Open());
  results_.Clear();
  ReleaseMemory();
  std::vector<core::AnnotatedTuple> rows;
  rows.reserve(child_->EstimatedRows());
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(core::ApproxBytes(batch)));
    for (core::AnnotatedTuple& in : batch.tuples) {
      rows.push_back(std::move(in));
    }
  }

  // Precompute key values so comparator calls cannot fail mid-sort.
  std::vector<std::vector<rel::Value>> key_values(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    key_values[i].reserve(keys_.size());
    for (const SortKey& key : keys_) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, key.expr->Evaluate(rows[i].tuple));
      key_values[i].push_back(std::move(v));
    }
  }
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rel::ValueLess less;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      const rel::Value& va = key_values[a][k];
      const rel::Value& vb = key_values[b][k];
      if (less(va, vb)) return keys_[k].ascending;
      if (less(vb, va)) return !keys_[k].ascending;
    }
    return false;
  });
  results_.rows.reserve(rows.size());
  for (size_t i : order) results_.rows.push_back(std::move(rows[i]));
  return Status::OK();
}

Status PartialSortState::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  runs_.clear();
  return Status::OK();
}

void PartialSortState::Publish(std::vector<SortRunEntry>&& run) {
  std::lock_guard<std::mutex> lock(mutex_);
  runs_.push_back(std::move(run));
}

std::vector<std::vector<SortRunEntry>> PartialSortState::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(runs_);
}

Status TopKBound::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  bound_ = SortRunEntry{};
  version_.store(0, std::memory_order_release);
  return Status::OK();
}

bool TopKBound::Tighten(const SortRunEntry& candidate) {
  SortRunLess less(&ascending_);
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t version = version_.load(std::memory_order_relaxed);
  if (version != 0 && !less(candidate, bound_)) return false;
  bound_.keys = candidate.keys;
  bound_.morsel = candidate.morsel;
  bound_.pos = candidate.pos;
  version_.store(version + 1, std::memory_order_release);
  return true;
}

bool TopKBound::Refresh(uint64_t* version, SortRunEntry* out) const {
  if (version_.load(std::memory_order_acquire) == *version) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  *version = version_.load(std::memory_order_relaxed);
  out->keys = bound_.keys;
  out->morsel = bound_.morsel;
  out->pos = bound_.pos;
  return true;
}

PartialSortOperator::PartialSortOperator(std::unique_ptr<Operator> child,
                                         std::vector<ParallelSortKey> keys,
                                         std::shared_ptr<PartialSortState> sink,
                                         std::shared_ptr<TopKBound> bound)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      sink_(std::move(sink)),
      bound_(std::move(bound)) {
  ascending_.reserve(keys_.size());
  for (const ParallelSortKey& key : keys_) ascending_.push_back(key.ascending);
}

std::string PartialSortOperator::Name() const {
  if (bound_ != nullptr) {
    return "PartialTopK(" + std::to_string(bound_->limit()) + ")";
  }
  return "PartialSort";
}

Status PartialSortOperator::BuildEntry(const core::AnnotatedBatch& batch,
                                       size_t i, SortRunEntry* entry) {
  const core::AnnotatedTuple& in = batch.tuples[i];
  entry->keys.clear();
  entry->keys.reserve(keys_.size());
  for (const ParallelSortKey& key : keys_) {
    if (key.spec != nullptr) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(int64_t count, key.spec->Evaluate(in));
      entry->keys.emplace_back(count);
    } else {
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Value v, key.expr->Evaluate(in.tuple));
      entry->keys.push_back(std::move(v));
    }
  }
  entry->morsel = batch.morsel;
  entry->pos = static_cast<uint32_t>(i);
  return Status::OK();
}

Status PartialSortOperator::DrainUnbounded(std::vector<SortRunEntry>* run) {
  // Drain the pipeline into one local run, tagging each tuple with its
  // serial rank (morsel, position within the morsel batch).
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(
        core::ApproxBytes(batch) + batch.tuples.size() * sizeof(SortRunEntry)));
    for (size_t i = 0; i < batch.tuples.size(); ++i) {
      SortRunEntry entry;
      INSIGHTNOTES_RETURN_IF_ERROR(BuildEntry(batch, i, &entry));
      entry.tuple = std::move(batch.tuples[i]);
      run->push_back(std::move(entry));
    }
  }
  return Status::OK();
}

Status PartialSortOperator::DrainTopK(std::vector<SortRunEntry>* run) {
  const size_t k = bound_->limit();
  SortRunLess less(&ascending_);
  // `run` doubles as the max-heap (per `less`, the front sorts last among
  // the kept entries — the local k-th candidate). Every input row either
  // survives in the heap or counts as pruned, so per worker
  //   rows_in == rows_pruned + partial_groups.
  SortRunEntry shared;     // Cached copy of the global bound (keys + rank).
  uint64_t version = 0;    // Last-seen bound version; 0 = none yet.
  bool have_shared = false;
  SortRunEntry entry;
  core::AnnotatedBatch batch;
  while (true) {
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    for (size_t i = 0; i < batch.tuples.size(); ++i) {
      if (k == 0) {  // LIMIT 0: nothing can qualify.
        ++metrics_.rows_pruned;
        continue;
      }
      INSIGHTNOTES_RETURN_IF_ERROR(BuildEntry(batch, i, &entry));
      if (bound_->Refresh(&version, &shared)) have_shared = true;
      // Some worker holds k entries sorting at or before `shared`; a row
      // sorting strictly after it cannot be in the global top k.
      if (have_shared && less(shared, entry)) {
        ++metrics_.rows_pruned;
        continue;
      }
      if (run->size() == k) {
        if (less(run->front(), entry)) {  // Sorts after our own k-th.
          ++metrics_.rows_pruned;
          continue;
        }
        // Evict the local k-th candidate — it is now provably outside.
        std::pop_heap(run->begin(), run->end(), less);
        run->back().keys = std::move(entry.keys);
        run->back().morsel = entry.morsel;
        run->back().pos = entry.pos;
        run->back().tuple = std::move(batch.tuples[i]);
        std::push_heap(run->begin(), run->end(), less);
        ++metrics_.rows_pruned;
      } else {
        entry.tuple = std::move(batch.tuples[i]);
        run->push_back(std::move(entry));
        std::push_heap(run->begin(), run->end(), less);
      }
      // A full heap's root is a valid k-th-candidate witness: publish it
      // so the other workers can prune against it too.
      if (run->size() == k && bound_->Tighten(run->front())) {
        ++metrics_.bound_updates;
      }
    }
  }
  std::sort_heap(run->begin(), run->end(), less);
  return Status::OK();
}

Result<bool> PartialSortOperator::NextBatchImpl(core::AnnotatedBatch*) {
  std::vector<SortRunEntry> run;
  if (bound_ != nullptr) {
    INSIGHTNOTES_RETURN_IF_ERROR(DrainTopK(&run));
  } else {
    INSIGHTNOTES_RETURN_IF_ERROR(DrainUnbounded(&run));
    // The rank makes SortRunLess a total order, so a plain sort suffices.
    std::sort(run.begin(), run.end(), SortRunLess(&ascending_));
  }
  metrics_.partial_groups += run.size();
  if (!run.empty()) sink_->Publish(std::move(run));
  return false;  // Runs surface via the sink, not as batches.
}

SortMergeOperator::SortMergeOperator(std::unique_ptr<Operator> child,
                                     std::vector<bool> ascending, std::string label,
                                     std::shared_ptr<PartialSortState> source,
                                     size_t limit)
    : child_(std::move(child)),
      ascending_(std::move(ascending)),
      label_(std::move(label)),
      source_(std::move(source)),
      limit_(limit) {}

Status SortMergeOperator::OpenImpl() {
  results_.Clear();
  ReleaseMemory();
  // Opening the child runs the parallel section to exhaustion; the pool
  // futures it joins on provide the happens-before for the published runs.
  INSIGHTNOTES_RETURN_IF_ERROR(child_->Open());
  std::vector<std::vector<SortRunEntry>> runs = source_->Take();
  Stopwatch watch;
  SortRunLess less(&ascending_);
  std::vector<size_t> pos(runs.size(), 0);
  // Min-heap over run indexes, keyed by each run's current head entry.
  // pos[i] only advances while i is out of the heap, so the comparator
  // stays consistent for every element currently enqueued.
  auto head_greater = [&](size_t a, size_t b) {
    return less(runs[b][pos[b]], runs[a][pos[a]]);
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(head_greater)> heap(
      head_greater);
  size_t total = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total += runs[i].size();
    if (!runs[i].empty()) heap.push(i);
  }
  std::vector<core::AnnotatedTuple>& rows = results_.rows;
  rows.reserve(std::min(total, limit_));
  // With a pushed-down LIMIT the merge stops at `limit_` rows: the heads
  // beyond it are exactly the rows the serial Limit above would discard.
  while (!heap.empty() && rows.size() < limit_) {
    size_t i = heap.top();
    heap.pop();
    rows.push_back(std::move(runs[i][pos[i]].tuple));
    if (++pos[i] < runs[i].size()) heap.push(i);
  }
  for (const core::AnnotatedTuple& tuple : rows) {
    INSIGHTNOTES_RETURN_IF_ERROR(ChargeMemory(core::ApproxBytes(tuple)));
  }
  if (metrics_enabled_) {
    metrics_.merge_ns += static_cast<uint64_t>(watch.ElapsedNanos());
  }
  return Status::OK();
}

Result<bool> LimitOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  if (produced_ >= limit_) return false;
  INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  size_t take = std::min(out->tuples.size(), limit_ - produced_);
  out->tuples.resize(take);
  produced_ += take;
  for (const core::AnnotatedTuple& tuple : out->tuples) Trace(tuple);
  return true;
}

}  // namespace insightnotes::exec
