#include "core/summary_instance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "mining/clustering.h"
#include "workload/annotation_gen.h"
#include "workload/bird_data.h"

namespace insightnotes::core {
namespace {

bool SameEntries(const txt::SparseVector& a, const txt::SparseVector& b) {
  if (a.NumNonZero() != b.NumNonZero()) return false;
  for (size_t i = 0; i < a.NumNonZero(); ++i) {
    if (a.entries()[i].term != b.entries()[i].term ||
        a.entries()[i].value != b.entries()[i].value) {
      return false;
    }
  }
  return true;
}

TEST(SummaryInstanceVectorStoreTest, GetVectorUnknownIdIsNull) {
  auto instance = SummaryInstance::MakeCluster("c", 0.3);
  EXPECT_EQ(instance->GetVector(0), nullptr);
  ann::Annotation note;
  note.id = 5000;
  note.body = "goose eating stonewort";
  txt::SparseVector vec = instance->VectorizeAnnotation(note);
  const txt::SparseVector* stored = instance->GetVector(5000);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(SameEntries(*stored, vec));
  EXPECT_EQ(instance->GetVector(4999), nullptr);
  EXPECT_EQ(instance->GetVector(uint64_t{1} << 40), nullptr);
  // A second commit for the same id keeps the published vector in place.
  instance->CommitTokens(5000, {"other", "tokens"});
  EXPECT_EQ(instance->GetVector(5000), stored);
  EXPECT_TRUE(SameEntries(*stored, vec));
}

// Readers resolve vectors and run cluster elections through the instance
// while one writer publishes new ids with both CommitTokens and
// VectorizeAnnotation. Every vector a reader sees must equal the one a
// serial vectorizer computes for that annotation, and pointers stay put.
TEST(SummaryInstanceVectorStoreTest, ConcurrentReadersSeeExactPublishedVectors) {
  constexpr size_t kNotes = 3000;
  constexpr size_t kReaders = 8;
  constexpr uint64_t kStride = 7;  // Ids span chunks and grow the directory.

  auto instance = SummaryInstance::MakeCluster("c", 0.3);
  workload::AnnotationGenerator gen(42);
  std::vector<ann::Annotation> notes;
  mining::TextVectorizer reference;  // Same tokenizer, same insertion order.
  std::vector<txt::SparseVector> expected;
  for (size_t i = 0; i < kNotes; ++i) {
    auto g = gen.GenerateComment(workload::CuratedSpecies()[i % 20]);
    g.annotation.id = i * kStride;
    expected.push_back(reference.Vectorize(g.annotation.body));
    notes.push_back(std::move(g.annotation));
  }

  std::atomic<size_t> published{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> reads{0};
  std::vector<const txt::SparseVector*> first_seen(kNotes, nullptr);

  std::thread writer([&] {
    for (size_t i = 0; i < kNotes; ++i) {
      if (i % 2 == 0) {
        instance->CommitTokens(notes[i].id, instance->TokenizeBody(notes[i]));
      } else {
        instance->VectorizeAnnotation(notes[i]);
      }
      first_seen[i] = instance->GetVector(notes[i].id);
      published.store(i + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(r + 1);
      while (true) {
        size_t n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        // Point lookups, including one past the published prefix (either
        // absent or already exact).
        for (int k = 0; k < 16; ++k) {
          size_t i = rng.Uniform(n);
          const txt::SparseVector* vec = instance->GetVector(notes[i].id);
          if (vec != first_seen[i] || !SameEntries(*vec, expected[i])) ++mismatches;
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (n < kNotes) {
          const txt::SparseVector* next = instance->GetVector(notes[n].id);
          if (next != nullptr && !SameEntries(*next, expected[n])) ++mismatches;
        }
        // Elections resolve member vectors through the store.
        mining::ClusterSet clusters(0.3, instance.get());
        std::vector<size_t> picked;
        for (int k = 0; k < 12; ++k) {
          size_t i = rng.Uniform(n);
          if (clusters.Contains(notes[i].id)) continue;
          if (!clusters.Add(notes[i].id, expected[i]).ok()) ++mismatches;
          picked.push_back(i);
        }
        for (size_t k = 0; k < picked.size(); k += 3) {
          if (!clusters.Remove(notes[picked[k]].id).ok()) ++mismatches;
        }
        for (const mining::ClusterGroup& g : clusters.groups()) {
          if (!std::binary_search(g.members.begin(), g.members.end(), g.representative)) {
            ++mismatches;
          }
        }
        if (n == kNotes) break;
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  for (size_t i = 0; i < kNotes; ++i) {
    const txt::SparseVector* vec = instance->GetVector(notes[i].id);
    ASSERT_NE(vec, nullptr) << "id " << notes[i].id;
    EXPECT_EQ(vec, first_seen[i]);
    EXPECT_TRUE(SameEntries(*vec, expected[i])) << "id " << notes[i].id;
  }
}

}  // namespace
}  // namespace insightnotes::core
