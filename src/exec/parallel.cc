#include "exec/parallel.h"

#include <algorithm>
#include <future>
#include <limits>

#include "core/engine_snapshot.h"
#include "exec/seq_scan.h"

namespace insightnotes::exec {

Status RowQuota::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
  prefix_morsel_ = 0;
  prefix_rows_ = 0;
  satisfied_.store(limit_ == 0, std::memory_order_release);
  return Status::OK();
}

void RowQuota::OnMorselDone(uint64_t morsel, size_t rows) {
  if (satisfied_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  pending_[morsel] = rows;
  // Fold completed morsels into the contiguous prefix, in morsel order.
  auto it = pending_.find(prefix_morsel_);
  while (it != pending_.end()) {
    prefix_rows_ += it->second;
    pending_.erase(it);
    it = pending_.find(++prefix_morsel_);
  }
  if (prefix_rows_ >= limit_) satisfied_.store(true, std::memory_order_release);
}

ScanMorselSource::ScanMorselSource(const rel::Table* table, std::string alias,
                                   core::SummaryManager* manager,
                                   const ann::AnnotationStore* store,
                                   bool with_summaries, size_t morsel_size)
    : table_(table),
      alias_(std::move(alias)),
      manager_(manager),
      store_(store),
      with_summaries_(with_summaries),
      morsel_size_(std::max<size_t>(1, morsel_size)),
      schema_(table->schema().WithQualifier(alias_.empty() ? table->name() : alias_)) {
  if (alias_.empty()) alias_ = table->name();
}

Status ScanMorselSource::Reset() {
  rows_.clear();
  tuples_.clear();
  reservation_.ReleaseAll();
  rows_.reserve(static_cast<size_t>(table_->NumRows()));
  tuples_.reserve(static_cast<size_t>(table_->NumRows()));
  next_morsel_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_release);
  snapshot_ = context_ != nullptr ? context_->snapshot() : nullptr;
  if (snapshot_ != nullptr && !snapshot_->CoversTable(table_->id())) {
    snapshot_ = nullptr;  // Table the pinned epoch predates: live reads.
  }
  // Rows at or beyond the pinned epoch's bound were inserted after the
  // epoch and are invisible (bound caps both prefetch paths below).
  rel::RowId bound = snapshot_ != nullptr
                         ? snapshot_->VisibleRows(table_->id())
                         : std::numeric_limits<rel::RowId>::max();
  // The prefetch is the plan's first big materialization: charge it row by
  // row (batched into slabs by the reservation) so an over-budget scan
  // aborts before the whole table is resident.
  if (has_probe_) {
    std::vector<rel::RowId> matches;
    INSIGHTNOTES_RETURN_IF_ERROR(ProbeIndex(*table_, probe_, &matches));
    for (rel::RowId row : matches) {
      if (row >= bound) break;  // Matches are sorted ascending.
      if (!table_->IsLive(row)) continue;
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Tuple tuple, table_->Get(row));
      INSIGHTNOTES_RETURN_IF_ERROR(
          reservation_.Charge(core::ApproxBytes(tuple) + sizeof(row)));
      rows_.push_back(row);
      tuples_.push_back(std::move(tuple));
    }
    return Status::OK();
  }
  if (snapshot_ != nullptr) {
    Status charge;
    for (rel::RowId row = 0; row < bound; ++row) {
      if (!table_->IsLive(row)) continue;
      INSIGHTNOTES_ASSIGN_OR_RETURN(rel::Tuple tuple, table_->Get(row));
      charge = reservation_.Charge(core::ApproxBytes(tuple) + sizeof(row));
      if (!charge.ok()) break;
      rows_.push_back(row);
      tuples_.push_back(std::move(tuple));
    }
    return charge;
  }
  Status charge;
  INSIGHTNOTES_RETURN_IF_ERROR(
      table_->Scan([&](rel::RowId row, const rel::Tuple& tuple) {
        charge = reservation_.Charge(core::ApproxBytes(tuple) + sizeof(row));
        if (!charge.ok()) return false;
        rows_.push_back(row);
        tuples_.push_back(tuple);
        return true;
      }));
  return charge;
}

void ScanMorselSource::AttachQueryContext(std::shared_ptr<QueryContext> context) {
  context_ = std::move(context);
  reservation_.Attach(context_ != nullptr ? &context_->budget() : nullptr,
                      "MorselSource(" + alias_ + ")");
}

bool ScanMorselSource::ClaimMorsel(uint64_t* morsel) {
  uint64_t num_morsels = (rows_.size() + morsel_size_ - 1) / morsel_size_;
  // Checked before the cursor bump so a satisfied quota stops dispatch
  // without consuming morsel indexes (UndispatchedRows stays exact).
  if (quota_ != nullptr && quota_->Satisfied()) return false;
  if (abort_.load(std::memory_order_acquire)) return false;
  uint64_t claimed = next_morsel_.fetch_add(1, std::memory_order_relaxed);
  if (claimed >= num_morsels) return false;
  *morsel = claimed;
  return true;
}

size_t ScanMorselSource::UndispatchedRows() const {
  uint64_t num_morsels = (rows_.size() + morsel_size_ - 1) / morsel_size_;
  uint64_t next = std::min<uint64_t>(
      next_morsel_.load(std::memory_order_relaxed), num_morsels);
  size_t dispatched = std::min(static_cast<size_t>(next) * morsel_size_, rows_.size());
  return rows_.size() - dispatched;
}

Status ScanMorselSource::Materialize(uint64_t morsel, core::AnnotatedBatch* out) const {
  out->tuples.clear();
  out->morsel = morsel;
  size_t begin = static_cast<size_t>(morsel) * morsel_size_;
  size_t end = std::min(begin + morsel_size_, rows_.size());
  out->tuples.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    core::AnnotatedTuple tuple(tuples_[i]);
    if (stamp_ranks_) tuple.order_ranks.assign(1, static_cast<uint32_t>(i));
    if (with_summaries_) {
      // From the pinned epoch when there is one: workers on other morsels
      // and concurrent writers never perturb what this scan sees.
      INSIGHTNOTES_RETURN_IF_ERROR(AttachRowAnnotations(
          snapshot_.get(), manager_, store_, table_->id(), rows_[i], &tuple));
    }
    out->tuples.push_back(std::move(tuple));
  }
  return Status::OK();
}

Status MorselScanOperator::OpenImpl() {
  last_claimed_morsel_ = kNoMorselClaimed;
  return Status::OK();
}

Result<bool> MorselScanOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  uint64_t morsel = 0;
  if (!source_->ClaimMorsel(&morsel)) return false;
  last_claimed_morsel_ = morsel;
  INSIGHTNOTES_RETURN_IF_ERROR(source_->Materialize(morsel, out));
  ++metrics_.morsels;
  if (trace_) {
    for (const core::AnnotatedTuple& tuple : out->tuples) Trace(tuple);
  }
  return true;
}

namespace {
MorselScanOperator* FindMorselLeaf(Operator* op) {
  if (auto* leaf = dynamic_cast<MorselScanOperator*>(op)) return leaf;
  for (Operator* child : op->Children()) {
    if (MorselScanOperator* leaf = FindMorselLeaf(child)) return leaf;
  }
  return nullptr;
}
}  // namespace

GatherOperator::GatherOperator(std::vector<std::unique_ptr<Operator>> workers,
                               std::vector<std::shared_ptr<SharedPlanState>> states,
                               ThreadPool* pool)
    : workers_(std::move(workers)), states_(std::move(states)), pool_(pool) {
  for (const auto& state : states_) {
    if (auto source = std::dynamic_pointer_cast<ScanMorselSource>(state)) {
      source_ = std::move(source);
      break;
    }
  }
  leaves_.reserve(workers_.size());
  for (const auto& worker : workers_) {
    leaves_.push_back(FindMorselLeaf(worker.get()));
  }
  worker_reservations_.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    worker_reservations_.push_back(std::make_unique<MemoryReservation>());
  }
}

void GatherOperator::SetQueryContext(std::shared_ptr<QueryContext> context) {
  Operator::SetQueryContext(context);  // Workers via Children().
  for (const auto& state : states_) state->AttachQueryContext(context_);
  for (size_t w = 0; w < worker_reservations_.size(); ++w) {
    worker_reservations_[w]->Attach(
        context_ != nullptr ? &context_->budget() : nullptr,
        "Gather(worker " + std::to_string(w) + ")");
  }
}

std::vector<Operator*> GatherOperator::Children() {
  std::vector<Operator*> children;
  children.reserve(workers_.size());
  for (const auto& worker : workers_) children.push_back(worker.get());
  return children;
}

void GatherOperator::SetTraceSink(TraceSink sink) {
  if (sink) {
    auto mutex = std::make_shared<std::mutex>();
    auto inner = std::make_shared<TraceSink>(std::move(sink));
    sink = [mutex, inner](const std::string& op, const core::AnnotatedTuple& t) {
      std::lock_guard<std::mutex> lock(*mutex);
      (*inner)(op, t);
    };
  }
  Operator::SetTraceSink(std::move(sink));
}

Status GatherOperator::DrainWorker(size_t w) {
  Operator* worker = workers_[w].get();
  RowQuota* quota = quota_.get();
  std::vector<core::AnnotatedBatch>* out = &collected_[w];
  MemoryReservation* mem = worker_reservations_[w].get();
  INSIGHTNOTES_RETURN_IF_ERROR(worker->Open());
  while (true) {
    core::AnnotatedBatch batch;
    INSIGHTNOTES_ASSIGN_OR_RETURN(bool more, worker->NextBatch(&batch));
    if (!more) break;
    INSIGHTNOTES_RETURN_IF_ERROR(mem->Charge(core::ApproxBytes(batch)));
    // Empty batches count too: a fully filtered morsel still advances the
    // quota's contiguous completed prefix.
    if (quota != nullptr) quota->OnMorselDone(batch.morsel, batch.tuples.size());
    out->push_back(std::move(batch));
  }
  return Status::OK();
}

Status GatherOperator::RunWorkerContained(size_t w) {
  Status status = [&]() -> Status {
    try {
      return DrainWorker(w);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("worker pipeline threw: ") + e.what());
    } catch (...) {
      return Status::Internal("worker pipeline threw a non-standard exception");
    }
  }();
  if (!status.ok() && source_ != nullptr) source_->AbortDispatch();
  return status;
}

void GatherOperator::JoinWorkers() {
  for (size_t i = 0; i < futures_.size(); ++i) {
    if (!futures_[i].valid()) continue;
    Status status;
    try {
      status = futures_[i].get();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("worker job lost: ") + e.what());
    } catch (...) {
      status = Status::Internal("worker job lost: unknown exception");
    }
    if (i < worker_status_.size() && worker_status_[i].ok()) {
      worker_status_[i] = std::move(status);
    }
  }
  futures_.clear();
}

Status GatherOperator::FirstWorkerError() const {
  Status first;
  uint64_t first_key = 0;
  for (size_t w = 0; w < worker_status_.size(); ++w) {
    const Status& status = worker_status_[w];
    if (status.ok()) continue;
    // User-driven interrupts hit every worker with the same code; report
    // them as-is rather than attributing the stop to one worker.
    if (status.IsCancelled() || status.IsDeadlineExceeded()) return status;
    MorselScanOperator* leaf = w < leaves_.size() ? leaves_[w] : nullptr;
    uint64_t claimed =
        leaf != nullptr ? leaf->last_claimed_morsel() : uint64_t{0};
    // An error before the first claim (Open failed) sorts before morsel 0.
    uint64_t key = claimed == MorselScanOperator::kNoMorselClaimed
                       ? 0
                       : claimed + 1;
    if (first.ok() || key < first_key) {
      first = status;
      first_key = key;
    }
  }
  return first;
}

Status GatherOperator::OpenImpl() {
  // Quiesce any jobs a previous (aborted) execution left behind, then drop
  // its buffers before re-reserving.
  JoinWorkers();
  batches_.clear();
  batch_cursor_ = 0;
  collected_.clear();
  collected_.resize(workers_.size());
  worker_status_.assign(workers_.size(), Status::OK());
  for (const auto& mem : worker_reservations_) mem->ReleaseAll();

  // Shared states reset once, serially, before any worker job runs: the
  // morsel source's prefetch and the join builds do all buffer-pool I/O
  // here on the caller's thread.
  for (const auto& state : states_) {
    INSIGHTNOTES_RETURN_IF_ERROR(state->Reset());
  }

  if (pool_ == nullptr || workers_.size() == 1) {
    for (size_t w = 0; w < workers_.size(); ++w) {
      worker_status_[w] = RunWorkerContained(w);
    }
  } else {
    futures_.reserve(workers_.size());
    for (size_t w = 0; w < workers_.size(); ++w) {
      futures_.push_back(pool_->Submit([this, w] { return RunWorkerContained(w); }));
    }
    JoinWorkers();
  }
  Status error = FirstWorkerError();
  if (!error.ok()) {
    // Leave everything resettable: buffers dropped, reservations returned.
    collected_.clear();
    for (const auto& mem : worker_reservations_) mem->ReleaseAll();
    return error;
  }

  size_t total = 0;
  for (const auto& worker_batches : collected_) total += worker_batches.size();
  batches_.reserve(total);
  for (auto& worker_batches : collected_) {
    for (auto& batch : worker_batches) batches_.push_back(std::move(batch));
  }
  collected_.clear();
  // Re-serialize: morsel indexes are unique, so sorting by them restores
  // the exact order a serial scan would have produced.
  std::sort(batches_.begin(), batches_.end(),
            [](const core::AnnotatedBatch& a, const core::AnnotatedBatch& b) {
              return a.morsel < b.morsel;
            });
  if (quota_ != nullptr && quota_source_ != nullptr) {
    // All workers have joined, so the morsel cursor is final: rows of
    // never-dispatched morsels were pruned by the LIMIT quota.
    metrics_.rows_pruned += quota_source_->UndispatchedRows();
  }
  return Status::OK();
}

Status GatherOperator::CloseImpl() {
  // Teardown ordering for the cancellation path: outstanding worker jobs
  // reference the shared states and per-worker buffers, so they must join
  // before anything else is released.
  JoinWorkers();
  collected_.clear();
  batches_.clear();
  batch_cursor_ = 0;
  for (const auto& mem : worker_reservations_) mem->ReleaseAll();
  return Status::OK();
}

Result<bool> GatherOperator::NextBatchImpl(core::AnnotatedBatch* out) {
  if (batch_cursor_ >= batches_.size()) return false;
  *out = std::move(batches_[batch_cursor_++]);
  return true;
}

}  // namespace insightnotes::exec
