#include "core/rco_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace insightnotes::core {
namespace {

/// A one-row snapshot whose single string value is `bytes` copies of
/// `fill`: serialized size 26 + `bytes` (see SizeBytesMatchesHandCounts).
std::shared_ptr<const ResultSnapshot> SnapshotOfSize(size_t bytes, char fill = 'x') {
  auto snapshot = std::make_shared<ResultSnapshot>();
  snapshot->column_names = {"pad"};
  RowSnapshot row;
  row.tuple = rel::Tuple({rel::Value(std::string(bytes, fill))});
  snapshot->rows.push_back(std::move(row));
  return snapshot;
}

/// Length of the single padded value of a SnapshotOfSize snapshot.
size_t PadOf(const ResultSnapshot& snapshot) {
  return snapshot.rows[0].tuple.ValueAt(0).AsString().size();
}

TEST(ZoomInCacheTest, PutGetRoundTrip) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  ResultSnapshot snapshot;
  snapshot.column_names = {"r.a", "r.b"};
  RowSnapshot row;
  row.tuple = rel::Tuple({rel::Value(static_cast<int64_t>(1))});
  SummarySnapshot s;
  s.instance = "ClassBird1";
  s.rendered = "[(Behavior, 2)]";
  s.components.push_back(ComponentSnapshot{"Behavior", {10, 20}});
  row.summaries.push_back(s);
  snapshot.rows.push_back(std::move(row));

  cache.Put(7, std::make_shared<const ResultSnapshot>(snapshot), 0.5);
  auto back = cache.Get(7);
  ASSERT_TRUE(back.ok());
  const ResultSnapshot& got = **back;
  EXPECT_EQ(got.column_names, snapshot.column_names);
  ASSERT_EQ(got.rows.size(), 1u);
  ASSERT_EQ(got.rows[0].summaries.size(), 1u);
  EXPECT_EQ(got.rows[0].summaries[0].rendered, "[(Behavior, 2)]");
  EXPECT_EQ(got.rows[0].summaries[0].components[0].ids,
            (std::vector<ann::AnnotationId>{10, 20}));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ZoomInCacheTest, MissCounts) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  EXPECT_TRUE(cache.Get(1).status().IsNotFound());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ZoomInCacheTest, NonePolicyRejectsEverything) {
  ZoomInCache cache(CachePolicy::kNone, 1 << 20);
  cache.Put(1, SnapshotOfSize(100), 1.0);
  EXPECT_TRUE(cache.Get(1).status().IsNotFound());
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ZoomInCacheTest, OversizeSnapshotRejected) {
  ZoomInCache cache(CachePolicy::kLru, 512);
  cache.Put(1, SnapshotOfSize(4096), 1.0);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(ZoomInCacheTest, LruEvictsOldest) {
  // Budget fits ~2 entries of ~400B.
  ZoomInCache cache(CachePolicy::kLru, 800);
  cache.Put(1, SnapshotOfSize(300), 1.0);
  cache.Put(2, SnapshotOfSize(300), 1.0);
  ASSERT_TRUE(cache.Get(1).ok());  // Touch 1 so 2 is LRU.
  cache.Put(3, SnapshotOfSize(300), 1.0);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ZoomInCacheTest, LfuEvictsLeastFrequent) {
  ZoomInCache cache(CachePolicy::kLfu, 800);
  cache.Put(1, SnapshotOfSize(300), 1.0);
  cache.Put(2, SnapshotOfSize(300), 1.0);
  ASSERT_TRUE(cache.Get(1).ok());
  ASSERT_TRUE(cache.Get(1).ok());  // qid 1 referenced more.
  cache.Put(3, SnapshotOfSize(300), 1.0);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(ZoomInCacheTest, RcoKeepsExpensiveResults) {
  // Two cold entries, same size and recency: RCO must evict the cheap one.
  ZoomInCache cache(CachePolicy::kRco, 800);
  cache.Put(1, SnapshotOfSize(300), /*cost=*/10.0);  // Expensive.
  cache.Put(2, SnapshotOfSize(300), /*cost=*/0.01);  // Cheap.
  cache.Put(3, SnapshotOfSize(300), /*cost=*/5.0);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(ZoomInCacheTest, RcoPenalizesLargeResults) {
  RcoWeights weights;
  weights.recency = 0.0;  // Isolate the overhead factor.
  weights.complexity = 0.0;
  weights.overhead = 1.0;
  ZoomInCache cache(CachePolicy::kRco, 1000, weights);
  cache.Put(1, SnapshotOfSize(500), 1.0);  // Large.
  cache.Put(2, SnapshotOfSize(100), 1.0);  // Small.
  cache.Put(3, SnapshotOfSize(400), 1.0);
  EXPECT_FALSE(cache.Contains(1));  // The big entry went first.
  EXPECT_TRUE(cache.Contains(2));
}

TEST(ZoomInCacheTest, ReplacingSameQidUpdates) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  cache.Put(1, SnapshotOfSize(100), 1.0);
  size_t used_before = cache.stats().bytes_used;
  cache.Put(1, SnapshotOfSize(200), 1.0);
  EXPECT_GT(cache.stats().bytes_used, used_before);
  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(PadOf(**back), 200u);
}

TEST(ZoomInCacheTest, OversizedReplacementKeepsOldEntry) {
  ZoomInCache cache(CachePolicy::kLru, 512);
  cache.Put(1, SnapshotOfSize(100), 1.0);
  // Larger than the whole budget: rejected, old snapshot untouched.
  cache.Put(1, SnapshotOfSize(4096), 1.0);
  EXPECT_EQ(cache.stats().rejected, 1u);
  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(PadOf(**back), 100u);
}

TEST(ZoomInCacheTest, ReplacementNeverEvictsItself) {
  // The entry being replaced is pinned: growing it within budget must not
  // pick it as its own victim even when it is the eviction-policy favorite.
  ZoomInCache cache(CachePolicy::kLru, 800);
  cache.Put(1, SnapshotOfSize(300), 1.0);  // LRU favorite.
  cache.Put(2, SnapshotOfSize(300), 1.0);
  cache.Put(1, SnapshotOfSize(600), 1.0);  // Needs room.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));  // 2 evicted, not the pinned 1.
  auto back = cache.Get(1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(PadOf(**back), 600u);
}

TEST(ZoomInCacheTest, EvictedAndReplacedSnapshotsAreFreedOnceUnheld) {
  ZoomInCache cache(CachePolicy::kLru, 800);
  std::weak_ptr<const ResultSnapshot> evicted;
  std::weak_ptr<const ResultSnapshot> replaced;
  {
    auto first = SnapshotOfSize(300);
    auto second = SnapshotOfSize(300);
    evicted = first;
    replaced = second;
    cache.Put(1, std::move(first), 1.0);
    cache.Put(2, std::move(second), 1.0);
  }
  EXPECT_FALSE(evicted.expired());  // The cache is the only holder.
  EXPECT_FALSE(replaced.expired());
  cache.Put(2, SnapshotOfSize(500), 1.0);  // Replaces 2, evicts 1.
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(evicted.expired());
  EXPECT_TRUE(replaced.expired());
}

TEST(ZoomInCacheTest, HeldSnapshotOutlivesEvictionAndReplacement) {
  ZoomInCache cache(CachePolicy::kLru, 800);
  cache.Put(1, SnapshotOfSize(300, 'a'), 1.0);
  cache.Put(2, SnapshotOfSize(300, 'b'), 1.0);
  auto get1 = cache.Get(1);
  auto get2 = cache.Get(2);
  ASSERT_TRUE(get1.ok());
  ASSERT_TRUE(get2.ok());
  std::shared_ptr<const ResultSnapshot> held_evicted = std::move(*get1);
  std::shared_ptr<const ResultSnapshot> held_replaced = std::move(*get2);
  std::weak_ptr<const ResultSnapshot> watch = held_evicted;

  cache.Put(2, SnapshotOfSize(100, 'c'), 1.0);  // Replaces 2.
  cache.Put(3, SnapshotOfSize(500, 'd'), 1.0);  // Evicts 1.
  ASSERT_FALSE(cache.Contains(1));
  auto current = cache.Get(2);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(PadOf(**current), 100u);

  // The readers still see the snapshots they were handed, intact.
  EXPECT_EQ(held_evicted->column_names, std::vector<std::string>{"pad"});
  EXPECT_EQ(held_evicted->rows[0].tuple.ValueAt(0).AsString(), std::string(300, 'a'));
  EXPECT_EQ(held_replaced->rows[0].tuple.ValueAt(0).AsString(), std::string(300, 'b'));
  EXPECT_FALSE(watch.expired());
  held_evicted.reset();  // The last holder lets go.
  EXPECT_TRUE(watch.expired());
}

TEST(ZoomInCacheTest, HitsShareOneSnapshot) {
  ZoomInCache cache(CachePolicy::kRco, 1 << 20);
  auto snapshot = SnapshotOfSize(100);
  const ResultSnapshot* admitted = snapshot.get();
  cache.Put(1, std::move(snapshot), 1.0);
  auto first = cache.Get(1);
  auto second = cache.Get(1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), admitted);
  EXPECT_EQ(second->get(), admitted);
  EXPECT_EQ(cache.stats().hits, 2u);
}

// Readers hold and read the snapshot of one qid while a writer keeps
// replacing it and evicting around it. Every snapshot a reader receives must
// be self-consistent: its pad length is encoded in its fill character.
TEST(ZoomInCacheTest, ConcurrentReadersSurviveReplacementAndEviction) {
  ZoomInCache cache(CachePolicy::kLru, 4096);
  auto make = [](int version) {
    return SnapshotOfSize(100 + static_cast<size_t>(version % 16) * 50,
                          static_cast<char>('a' + version % 16));
  };
  cache.Put(0, make(0), 1.0);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto got = cache.Get(0);
        if (!got.ok()) continue;  // Evicted between replacements.
        const std::string& pad = (*got)->rows[0].tuple.ValueAt(0).AsString();
        ASSERT_FALSE(pad.empty());
        size_t version = static_cast<size_t>(pad[0] - 'a');
        ASSERT_EQ(pad.size(), 100 + version * 50);
        ASSERT_EQ(pad, std::string(pad.size(), pad[0]));
      }
    });
  }
  for (int i = 1; i <= 2000; ++i) {
    cache.Put(0, make(i), 1.0);
    cache.Put(1 + static_cast<QueryId>(i % 8), SnapshotOfSize(400), 1.0);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes_used, cache.budget_bytes());
}

/// Brute-force reference model of the cache's bookkeeping: same tick,
/// recency/frequency and RCO-score semantics, victim picked by exhaustive
/// scan. Drives an eviction-heavy random workload and cross-checks contents
/// and stats after every operation.
class CacheOracle {
 public:
  CacheOracle(CachePolicy policy, size_t budget, RcoWeights weights)
      : policy_(policy), budget_(budget), weights_(weights) {}

  void Put(QueryId qid, size_t bytes, double cost) {
    if (bytes > budget_) {
      ++stats_.rejected;
      return;
    }
    auto existing = entries_.find(qid);
    size_t reclaimable = existing != entries_.end() ? existing->second.size : 0;
    bool pinned = existing != entries_.end();
    while (stats_.bytes_used - reclaimable + bytes > budget_) {
      if (entries_.size() <= (pinned ? 1u : 0u)) {
        ++stats_.rejected;
        return;
      }
      QueryId victim = PickVictim(pinned ? &qid : nullptr);
      stats_.bytes_used -= entries_[victim].size;
      entries_.erase(victim);
      ++stats_.evictions;
    }
    if (existing != entries_.end()) {
      stats_.bytes_used -= existing->second.size;
      entries_.erase(existing);
    }
    Entry e;
    e.size = bytes;
    e.cost = cost;
    e.last_ref = ++tick_;
    e.ref_count = 1;
    entries_[qid] = e;
    stats_.bytes_used += bytes;
    ++stats_.insertions;
  }

  void Get(QueryId qid) {
    auto it = entries_.find(qid);
    if (it == entries_.end()) {
      ++stats_.misses;
      return;
    }
    ++stats_.hits;
    it->second.last_ref = ++tick_;
    ++it->second.ref_count;
  }

  bool Contains(QueryId qid) const { return entries_.contains(qid); }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    size_t size = 0;
    double cost = 0.0;
    uint64_t last_ref = 0;
    uint64_t ref_count = 0;
  };

  QueryId PickVictim(const QueryId* exclude) const {
    double max_cost = 1e-9;
    size_t max_size = 1;
    for (const auto& [qid, e] : entries_) {
      max_cost = std::max(max_cost, e.cost);
      max_size = std::max(max_size, e.size);
    }
    bool have = false;
    QueryId victim = 0;
    uint64_t best_tick = 0;
    double best_score = 0.0;
    for (const auto& [qid, e] : entries_) {
      if (exclude != nullptr && qid == *exclude) continue;
      double score = 0.0;
      uint64_t key = 0;
      switch (policy_) {
        case CachePolicy::kLru:
          key = e.last_ref;
          if (!have || key < best_tick) { best_tick = key; victim = qid; }
          break;
        case CachePolicy::kLfu:
          key = e.ref_count;
          if (!have || key < best_tick) { best_tick = key; victim = qid; }
          break;
        case CachePolicy::kRco: {
          double age = static_cast<double>(tick_ - e.last_ref);
          double recency = 1.0 / (1.0 + age);
          double complexity = e.cost / max_cost;
          double overhead =
              static_cast<double>(e.size) / static_cast<double>(max_size);
          score = weights_.recency * recency + weights_.complexity * complexity -
                  weights_.overhead * overhead;
          if (!have || score < best_score) { best_score = score; victim = qid; }
          break;
        }
        case CachePolicy::kNone:
          if (!have) victim = qid;
          break;
      }
      have = true;
    }
    return victim;
  }

  CachePolicy policy_;
  size_t budget_;
  RcoWeights weights_;
  std::map<QueryId, Entry> entries_;
  uint64_t tick_ = 0;
  CacheStats stats_;
};

TEST(ZoomInCacheTest, EvictionHeavyRunMatchesBruteForceOracle) {
  for (CachePolicy policy :
       {CachePolicy::kLru, CachePolicy::kLfu, CachePolicy::kRco}) {
    RcoWeights weights;  // Defaults, as the cache uses them.
    const size_t kBudget = 1500;
    ZoomInCache cache(policy, kBudget, weights);
      CacheOracle oracle(policy, kBudget, weights);

    uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(policy);
    auto next = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    constexpr QueryId kQids = 12;
    for (int op = 0; op < 400; ++op) {
      QueryId qid = next() % kQids;
      if (next() % 4 == 0) {
        (void)cache.Get(qid);
        oracle.Get(qid);
      } else {
        size_t payload = 100 + next() % 500;
        double cost = 0.01 * static_cast<double>(1 + next() % 1000);
        auto snapshot = SnapshotOfSize(payload);
        cache.Put(qid, snapshot, cost);
        oracle.Put(qid, snapshot->SizeBytes(), cost);
      }
      for (QueryId q = 0; q < kQids; ++q) {
        ASSERT_EQ(cache.Contains(q), oracle.Contains(q))
            << "policy=" << CachePolicyToString(policy) << " op=" << op
            << " qid=" << q;
      }
      ASSERT_EQ(cache.stats().hits, oracle.stats().hits) << "op=" << op;
      ASSERT_EQ(cache.stats().misses, oracle.stats().misses) << "op=" << op;
      ASSERT_EQ(cache.stats().evictions, oracle.stats().evictions)
          << "policy=" << CachePolicyToString(policy) << " op=" << op;
      ASSERT_EQ(cache.stats().insertions, oracle.stats().insertions)
          << "op=" << op;
      ASSERT_EQ(cache.stats().rejected, oracle.stats().rejected) << "op=" << op;
      ASSERT_EQ(cache.stats().bytes_used, oracle.stats().bytes_used)
          << "op=" << op;
    }
  }
}

// SizeBytes is the cache's budget charge. It must equal the length of the
// snapshot's flat binary encoding — u32 column count, u32-length-prefixed
// names, u32 row count, then per row the rel::Tuple encoding (u16 count,
// per value a type byte plus 8 bytes for numbers or a u32 length plus the
// string), a u32 summary count, per summary the length-prefixed instance
// and rendered strings and a u32 component count, per component a
// length-prefixed label, a u32 id count and u64 ids — so eviction decisions
// match the cache's earlier serialized-size accounting.
TEST(SnapshotTest, SizeBytesMatchesHandCounts) {
  ResultSnapshot empty;
  EXPECT_EQ(empty.SizeBytes(), 4u + 4u);

  ResultSnapshot multi_row;
  multi_row.column_names = {"a", "bb"};  // 4 + (4 + 1) + (4 + 2) = 15.
  RowSnapshot r1;                         // 2 + (1 + 8) + (1 + 4 + 3) = 19.
  r1.tuple = rel::Tuple({rel::Value(static_cast<int64_t>(1)),
                         rel::Value(std::string("xyz"))});
  RowSnapshot r2;  // 2 + 1 + (1 + 8) = 12.
  r2.tuple = rel::Tuple({rel::Value::Null(), rel::Value(2.5)});
  multi_row.rows = {r1, r2};
  EXPECT_EQ(multi_row.SizeBytes(), 15u + 4u + (19u + 4u) + (12u + 4u));

  ResultSnapshot multi_summary;
  multi_summary.column_names = {"c"};  // 4 + 5 = 9.
  RowSnapshot r3;                       // Tuple 2 + 9 = 11, count 4.
  r3.tuple = rel::Tuple({rel::Value(static_cast<int64_t>(7))});
  r3.summaries.push_back(SummarySnapshot{"I1", "r1", {}});    // 6 + 6 + 4.
  r3.summaries.push_back(SummarySnapshot{"Inst2", "", {}});   // 9 + 4 + 4.
  multi_summary.rows = {r3};
  EXPECT_EQ(multi_summary.SizeBytes(), 9u + 4u + 11u + 4u + 16u + 17u);

  ResultSnapshot multi_component;
  multi_component.column_names = {"c"};
  RowSnapshot r4;  // Empty tuple: 2 bytes.
  SummarySnapshot s{"S", "R", {}};                                // 5 + 5 + 4.
  s.components.push_back(ComponentSnapshot{"Behavior", {1, 2, 3}});  // 12 + 4 + 24.
  s.components.push_back(ComponentSnapshot{"", {}});                 // 4 + 4.
  s.components.push_back(ComponentSnapshot{"x", {9}});               // 5 + 4 + 8.
  r4.summaries.push_back(s);
  multi_component.rows = {r4};
  EXPECT_EQ(multi_component.SizeBytes(), 9u + 4u + 2u + 4u + 14u + 40u + 8u + 17u);

  // The padded helper the eviction tests size their budgets with.
  EXPECT_EQ(SnapshotOfSize(100)->SizeBytes(), 126u);
  EXPECT_EQ(SnapshotOfSize(0)->SizeBytes(), 26u);
}

TEST(ZoomInCacheTest, EpochKeyedLookup) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);
  cache.Put(7, SnapshotOfSize(100), 1.0, /*epoch=*/5);

  // Same epoch hits; a different epoch is a miss (stale summary versions);
  // the wildcard matches either way.
  EXPECT_TRUE(cache.Get(7, 5).ok());
  EXPECT_TRUE(cache.Get(7, 6).status().IsNotFound());
  EXPECT_TRUE(cache.Get(7, ZoomInCache::kAnyEpoch).ok());

  // An entry stored under the wildcard serves every epoch.
  cache.Put(8, SnapshotOfSize(100), 1.0);
  EXPECT_TRUE(cache.Get(8, 3).ok());
  EXPECT_TRUE(cache.Get(8, 9).ok());
}

// Counter conservation under concurrency: counters are bumped from many
// threads, and every operation lands in exactly one
// bucket, so the totals must reconcile exactly after the threads join.
TEST(ZoomInCacheTest, ConcurrentCountersConserve) {
  ZoomInCache cache(CachePolicy::kLru, 1 << 20);  // Roomy: no evictions.
  constexpr int kThreads = 8;
  constexpr int kQidsPerThread = 16;
  constexpr int kGetsPerQid = 4;
  const size_t entry_payload = 64;

  const size_t entry_size = SnapshotOfSize(entry_payload)->SizeBytes();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Disjoint qid ranges (qid % kThreads == t).
      for (int i = 0; i < kQidsPerThread; ++i) {
        QueryId qid = static_cast<QueryId>(t + i * kThreads);
        // Miss first, then insert, then hit.
        EXPECT_TRUE(cache.Get(qid).status().IsNotFound());
        cache.Put(qid, SnapshotOfSize(entry_payload), 1.0);
        for (int g = 0; g < kGetsPerQid; ++g) {
          EXPECT_TRUE(cache.Get(qid).ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  CacheStats stats = cache.stats();
  constexpr uint64_t kEntries = kThreads * kQidsPerThread;
  EXPECT_EQ(stats.insertions, kEntries);
  EXPECT_EQ(stats.hits, kEntries * kGetsPerQid);
  EXPECT_EQ(stats.misses, kEntries);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.bytes_used, kEntries * entry_size);
  for (QueryId qid = 0; qid < kEntries; ++qid) {
    EXPECT_TRUE(cache.Contains(qid)) << qid;
  }
}

// Conservation with evictions: insertions == evictions + live entries,
// and bytes_used equals the live entries' total serialized size.
TEST(ZoomInCacheTest, ConcurrentEvictionConservation) {
  const size_t entry_size = SnapshotOfSize(64)->SizeBytes();
  // Budget fits ~20 entries, so concurrent inserts of 128 distinct qids
  // must evict; the directory totals still have to reconcile.
  ZoomInCache cache(CachePolicy::kLru, entry_size * 20);
  constexpr int kThreads = 8;
  constexpr int kQidsPerThread = 16;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQidsPerThread; ++i) {
        QueryId qid = static_cast<QueryId>(t + i * kThreads);
        cache.Put(qid, SnapshotOfSize(64), 1.0);
        (void)cache.Get(qid);  // May hit or miss (already evicted).
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  CacheStats stats = cache.stats();
  uint64_t live = 0;
  for (QueryId qid = 0; qid < kThreads * kQidsPerThread; ++qid) {
    if (cache.Contains(qid)) ++live;
  }
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(kThreads * kQidsPerThread));
  EXPECT_EQ(stats.insertions, stats.evictions + live);
  EXPECT_EQ(stats.bytes_used, live * entry_size);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kQidsPerThread));
}

}  // namespace
}  // namespace insightnotes::core
