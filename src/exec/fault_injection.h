// Scripted executor faults, mirroring storage/fault_injection.h for the
// query side: a FaultInjectingOperator wraps one worker pipeline stage and
// fails, throws or stalls at the Nth NextBatch call on a chosen worker.
// Tests sweep operator types x parallelism x fault points the way the WAL
// crash sweeps do, proving that any mid-morsel worker failure surfaces as
// a clean non-OK Status (first error in morsel order), leaks no workers,
// and leaves the engine answering the next query byte-identically.
//
// The script is configured before execution and read-only while workers
// run; only the fired counter mutates (atomically), so concurrent worker
// pipelines can consult it without locks.

#ifndef INSIGHTNOTES_EXEC_FAULT_INJECTION_H_
#define INSIGHTNOTES_EXEC_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace insightnotes::exec {

enum class ExecFaultAction {
  kError,  // Return Status::Internal from NextBatch.
  kThrow,  // Throw std::runtime_error (exception-containment coverage).
  kStall,  // Sleep stall_ms, then proceed normally (deadline coverage).
};

/// One scripted fault: fire when worker `worker` makes its `nth` (1-based)
/// NextBatch call through its FaultInjectingOperator.
struct ExecFault {
  size_t worker = 0;
  uint64_t nth_next_batch = 1;
  ExecFaultAction action = ExecFaultAction::kError;
  int64_t stall_ms = 0;  // kStall only.
};

/// Shared fault script consulted by every FaultInjectingOperator of a
/// plan. Configure before Open; Reset (or ClearFired) between executions.
class ExecFaultScript {
 public:
  void AddFault(ExecFault fault) { faults_.push_back(fault); }
  void Clear() {
    faults_.clear();
    fired_.store(0, std::memory_order_relaxed);
  }
  /// Re-arms the script for another execution without changing the faults.
  void ClearFired() { fired_.store(0, std::memory_order_relaxed); }

  /// Times a scripted fault fired (for sweep assertions).
  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

  /// Consulted on each NextBatch: returns the matching fault or nullptr.
  /// Marks the fault fired. Thread-safe (faults_ is immutable here).
  const ExecFault* Match(size_t worker, uint64_t call_index) {
    for (const ExecFault& fault : faults_) {
      if (fault.worker == worker && fault.nth_next_batch == call_index) {
        fired_.fetch_add(1, std::memory_order_relaxed);
        return &fault;
      }
    }
    return nullptr;
  }

 private:
  std::vector<ExecFault> faults_;
  std::atomic<uint64_t> fired_{0};
};

/// Transparent pipeline stage that executes the script: passes batches
/// through unchanged unless a fault matches (worker, NextBatch call #).
/// The planner inserts one per worker pipeline via
/// PlannerOptions::wrap_worker_pipeline.
class FaultInjectingOperator final : public Operator {
 public:
  FaultInjectingOperator(std::unique_ptr<Operator> child,
                         std::shared_ptr<ExecFaultScript> script, size_t worker)
      : child_(std::move(child)), script_(std::move(script)), worker_(worker) {}

  const rel::Schema& OutputSchema() const override {
    return child_->OutputSchema();
  }
  std::string Name() const override {
    return "FaultInject(worker " + std::to_string(worker_) + ")";
  }
  std::vector<Operator*> Children() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 protected:
  Status OpenImpl() override {
    calls_ = 0;
    return child_->Open();
  }
  Result<bool> NextBatchImpl(core::AnnotatedBatch* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::shared_ptr<ExecFaultScript> script_;
  size_t worker_;
  uint64_t calls_ = 0;
};

}  // namespace insightnotes::exec

#endif  // INSIGHTNOTES_EXEC_FAULT_INJECTION_H_
