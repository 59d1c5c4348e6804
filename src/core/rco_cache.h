// The zoom-in result cache (Section 2.2): recent query-result snapshots
// compete for a limited budget. Eviction is governed by the paper's RCO
// policy — Recency, Complexity (cost to recompute the result), Overhead
// (result size) — with LRU and LFU available as ablation baselines and
// kNone disabling caching entirely.
//
// The cache is memory-resident: each entry is an immutable decoded
// snapshot behind a shared_ptr, charged its serialized size
// (ResultSnapshot::SizeBytes) against the budget. A hit is a directory
// lookup, a recency/frequency bump and a refcount increment; a caller that
// holds a snapshot keeps it alive across its eviction or replacement, and
// the snapshot is freed when the last holder drops it.
//
// Thread-safe: one mutex guards the directory and the counters. Every
// critical section is a map operation (no I/O, no decode), so readers do
// not wait behind anything slower than a concurrent eviction scan.

#ifndef INSIGHTNOTES_CORE_RCO_CACHE_H_
#define INSIGHTNOTES_CORE_RCO_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/zoom_in.h"

namespace insightnotes::core {

enum class CachePolicy : uint8_t { kNone = 0, kLru = 1, kLfu = 2, kRco = 3 };

std::string_view CachePolicyToString(CachePolicy policy);

/// Point-in-time copy of the cache's counters, taken under the directory
/// mutex (consistent across counters).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;  // Entries larger than the whole budget.
  size_t bytes_used = 0;
};

/// Weights of the RCO score. score(e) = wr*recency(e) + wc*complexity(e)
/// - wo*overhead(e); the entry with the lowest score is evicted first.
struct RcoWeights {
  double recency = 1.0;
  double complexity = 1.0;
  double overhead = 0.5;
};

class ZoomInCache {
 public:
  /// Wildcard epoch key: entries stored under it match any lookup and any
  /// lookup with it matches any entry. Engine epochs start at 1, so 0 is
  /// free to mean "executed against live state, no pinned epoch".
  static constexpr uint64_t kAnyEpoch = 0;

  /// `budget_bytes` caps the sum of the entries' serialized sizes.
  ZoomInCache(CachePolicy policy, size_t budget_bytes, RcoWeights weights = {});

  ZoomInCache(const ZoomInCache&) = delete;
  ZoomInCache& operator=(const ZoomInCache&) = delete;

  /// Admits the snapshot of `qid` with recompute cost `cost_seconds`,
  /// keyed by the epoch the result was computed at (kAnyEpoch = live).
  /// Snapshots that cannot fit even an empty cache are rejected (counted in
  /// stats().rejected); under kNone everything is rejected. Replacing an
  /// existing qid is atomic: a rejected replacement keeps the old snapshot,
  /// and the replaced entry is never evicted to make room for itself.
  void Put(QueryId qid, std::shared_ptr<const ResultSnapshot> snapshot,
           double cost_seconds, uint64_t epoch = kAnyEpoch);

  /// Returns the snapshot for `qid`, bumping its recency/frequency. NotFound
  /// on miss (evicted, rejected, never inserted, or cached at a different
  /// epoch than requested).
  Result<std::shared_ptr<const ResultSnapshot>> Get(QueryId qid,
                                                    uint64_t epoch = kAnyEpoch);

  bool Contains(QueryId qid) const;

  CacheStats stats() const;
  CachePolicy policy() const { return policy_; }
  size_t budget_bytes() const { return budget_; }

 private:
  struct Entry {
    std::shared_ptr<const ResultSnapshot> snapshot;
    size_t size = 0;             // Serialized size charged to the budget.
    double cost = 0.0;
    uint64_t epoch = kAnyEpoch;  // Epoch the cached result was computed at.
    uint64_t last_ref = 0;       // Logical tick.
    uint64_t ref_count = 0;
  };

  /// Evicts entries until `needed` bytes fit, where `reclaimable` bytes of
  /// the current usage will be freed by the caller on success (the entry
  /// being replaced) and `exclude`, when non-null, must never be picked as
  /// a victim. Victims' snapshots move to `released` so the caller frees
  /// them unlocked. Returns false if impossible. Mutex held.
  bool MakeRoom(size_t needed, size_t reclaimable, const QueryId* exclude,
                std::vector<std::shared_ptr<const ResultSnapshot>>* released);
  /// Picks the eviction victim under the configured policy, skipping
  /// `exclude`; ties go to the smaller qid. Must not be called when no
  /// candidate exists. Mutex held.
  QueryId PickVictim(const QueryId* exclude) const;
  /// RCO score against pre-computed normalization maxima (hoisted out of
  /// the candidate loop: one pre-pass per eviction, not one per candidate).
  double RcoScore(const Entry& e, double max_cost, size_t max_size) const;

  const CachePolicy policy_;
  const size_t budget_;
  const RcoWeights weights_;
  mutable std::mutex mutex_;
  std::map<QueryId, Entry> entries_;  // Guarded by mutex_, as is all below.
  uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace insightnotes::core

#endif  // INSIGHTNOTES_CORE_RCO_CACHE_H_
