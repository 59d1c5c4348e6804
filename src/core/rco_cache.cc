#include "core/rco_cache.h"

#include <algorithm>
#include <vector>

namespace insightnotes::core {

std::string_view CachePolicyToString(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone:
      return "none";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kLfu:
      return "lfu";
    case CachePolicy::kRco:
      return "rco";
  }
  return "?";
}

ZoomInCache::ZoomInCache(CachePolicy policy, size_t budget_bytes, RcoWeights weights)
    : policy_(policy), budget_(budget_bytes), weights_(weights) {}

void ZoomInCache::Put(QueryId qid, std::shared_ptr<const ResultSnapshot> snapshot,
                      double cost_seconds, uint64_t epoch) {
  const size_t size = snapshot->SizeBytes();
  // Snapshots displaced below are freed after the lock is released, so
  // dropping a large result never stalls other sessions' lookups.
  std::vector<std::shared_ptr<const ResultSnapshot>> released;
  std::lock_guard<std::mutex> lock(mutex_);
  if (policy_ == CachePolicy::kNone || size > budget_) {
    ++stats_.rejected;  // Larger than the whole cache: never admitted.
    return;
  }
  // An existing entry for the same qid is replaced; it is pinned against
  // eviction (MakeRoom skips it) and its bytes are discounted from the room
  // calculation since they are reclaimed below.
  auto existing = entries_.find(qid);
  size_t reclaimable = existing != entries_.end() ? existing->second.size : 0;
  const QueryId* pinned = existing != entries_.end() ? &qid : nullptr;
  if (!MakeRoom(size, reclaimable, pinned, &released)) {
    ++stats_.rejected;
    return;  // Old snapshot (if any) remains cached.
  }
  if (existing != entries_.end()) {
    released.push_back(std::move(existing->second.snapshot));
    stats_.bytes_used -= existing->second.size;
  }
  Entry& entry = entries_[qid];
  entry.snapshot = std::move(snapshot);
  entry.size = size;
  entry.cost = cost_seconds;
  entry.epoch = epoch;
  entry.last_ref = ++tick_;
  entry.ref_count = 1;
  stats_.bytes_used += size;
  ++stats_.insertions;
}

Result<std::shared_ptr<const ResultSnapshot>> ZoomInCache::Get(QueryId qid,
                                                               uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(qid);
  if (it == entries_.end()) {
    ++stats_.misses;
    return Status::NotFound("result " + std::to_string(qid) + " not cached");
  }
  Entry& e = it->second;
  if (epoch != kAnyEpoch && e.epoch != kAnyEpoch && e.epoch != epoch) {
    // Cached at a different epoch than the caller pinned: serving it would
    // mix summary versions, so it is a miss (the caller re-executes).
    ++stats_.misses;
    return Status::NotFound("result " + std::to_string(qid) + " cached at epoch " +
                            std::to_string(e.epoch) + ", not " +
                            std::to_string(epoch));
  }
  ++stats_.hits;
  e.last_ref = ++tick_;
  ++e.ref_count;
  return e.snapshot;
}

bool ZoomInCache::Contains(QueryId qid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.contains(qid);
}

CacheStats ZoomInCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ZoomInCache::MakeRoom(size_t needed, size_t reclaimable, const QueryId* exclude,
                           std::vector<std::shared_ptr<const ResultSnapshot>>* released) {
  while (stats_.bytes_used - reclaimable + needed > budget_) {
    // The pinned entry (the one being replaced) is not an eviction
    // candidate.
    if (entries_.size() <= (exclude != nullptr ? 1u : 0u)) return false;
    auto it = entries_.find(PickVictim(exclude));
    released->push_back(std::move(it->second.snapshot));
    stats_.bytes_used -= it->second.size;
    entries_.erase(it);
    ++stats_.evictions;
  }
  return true;
}

QueryId ZoomInCache::PickVictim(const QueryId* exclude) const {
  // Hoisted normalization pre-pass: one O(n) scan per eviction instead of
  // one per candidate.
  double max_cost = 1e-9;
  size_t max_size = 1;
  if (policy_ == CachePolicy::kRco) {
    for (const auto& [qid, e] : entries_) {
      max_cost = std::max(max_cost, e.cost);
      max_size = std::max(max_size, e.size);
    }
  }
  // The directory iterates in qid order and only a strictly better
  // candidate replaces the current one, so ties go to the smaller qid.
  bool have_victim = false;
  QueryId victim = 0;
  uint64_t best_tick = 0;
  double best_score = 0.0;
  for (const auto& [qid, e] : entries_) {
    if (exclude != nullptr && qid == *exclude) continue;
    switch (policy_) {
      case CachePolicy::kLru:
        if (!have_victim || e.last_ref < best_tick) {
          best_tick = e.last_ref;
          victim = qid;
        }
        break;
      case CachePolicy::kLfu:
        if (!have_victim || e.ref_count < best_tick) {
          best_tick = e.ref_count;
          victim = qid;
        }
        break;
      case CachePolicy::kRco: {
        double score = RcoScore(e, max_cost, max_size);
        if (!have_victim || score < best_score) {
          best_score = score;
          victim = qid;
        }
        break;
      }
      case CachePolicy::kNone:
        if (!have_victim) victim = qid;
        break;
    }
    have_victim = true;
  }
  return victim;
}

double ZoomInCache::RcoScore(const Entry& e, double max_cost, size_t max_size) const {
  // Recency in (0, 1]: 1 for the most recent reference.
  double age = static_cast<double>(tick_ - e.last_ref);
  double recency = 1.0 / (1.0 + age);
  double complexity = e.cost / max_cost;
  double overhead = static_cast<double>(e.size) / static_cast<double>(max_size);
  return weights_.recency * recency + weights_.complexity * complexity -
         weights_.overhead * overhead;
}

}  // namespace insightnotes::core
