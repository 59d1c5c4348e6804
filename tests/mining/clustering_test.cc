#include "mining/clustering.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"

namespace insightnotes::mining {
namespace {

class ClusteringTest : public ::testing::Test {
 protected:
  txt::SparseVector V(const std::string& text) { return vectorizer_.Vectorize(text); }
  TextVectorizer vectorizer_;
};

TEST_F(ClusteringTest, SimilarDocumentsShareAGroup) {
  ClusterSet cs(0.3);
  ASSERT_TRUE(cs.Add(1, V("the goose was eating stonewort plants")).ok());
  ASSERT_TRUE(cs.Add(2, V("goose eating stonewort near the lake")).ok());
  ASSERT_TRUE(cs.Add(3, V("wingspan measured at 160 centimeters")).ok());
  EXPECT_EQ(cs.NumGroups(), 2u);
  EXPECT_EQ(cs.NumDocuments(), 3u);
}

TEST_F(ClusteringTest, DissimilarDocumentsSeedNewGroups) {
  ClusterSet cs(0.9);  // Very strict threshold.
  ASSERT_TRUE(cs.Add(1, V("alpha beta gamma")).ok());
  ASSERT_TRUE(cs.Add(2, V("delta epsilon zeta")).ok());
  ASSERT_TRUE(cs.Add(3, V("eta theta iota")).ok());
  EXPECT_EQ(cs.NumGroups(), 3u);
}

TEST_F(ClusteringTest, DuplicateAddRejected) {
  ClusterSet cs;
  ASSERT_TRUE(cs.Add(1, V("hello world")).ok());
  EXPECT_TRUE(cs.Add(1, V("hello again")).status().IsAlreadyExists());
}

TEST_F(ClusteringTest, RepresentativeIsAMember) {
  ClusterSet cs(0.2);
  ASSERT_TRUE(cs.Add(10, V("swan goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(20, V("goose eating stonewort daily")).ok());
  ASSERT_TRUE(cs.Add(30, V("stonewort eaten by goose swan")).ok());
  for (const auto& g : cs.groups()) {
    EXPECT_TRUE(std::binary_search(g.members.begin(), g.members.end(),
                                   g.representative));
  }
}

TEST_F(ClusteringTest, RemoveDropsEffectAndReelects) {
  ClusterSet cs(0.2);
  ASSERT_TRUE(cs.Add(1, V("goose eating stonewort plants lake")).ok());
  ASSERT_TRUE(cs.Add(2, V("goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(3, V("eating stonewort lake")).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  DocId rep = cs.groups()[0].representative;
  ASSERT_TRUE(cs.Remove(rep).ok());
  ASSERT_EQ(cs.NumGroups(), 1u);
  EXPECT_EQ(cs.groups()[0].size(), 2u);
  EXPECT_NE(cs.groups()[0].representative, rep);
  EXPECT_FALSE(cs.Contains(rep));
}

TEST_F(ClusteringTest, RemoveLastMemberDeletesGroup) {
  ClusterSet cs;
  ASSERT_TRUE(cs.Add(1, V("solitary document")).ok());
  ASSERT_TRUE(cs.Remove(1).ok());
  EXPECT_EQ(cs.NumGroups(), 0u);
  EXPECT_EQ(cs.NumDocuments(), 0u);
  EXPECT_TRUE(cs.Remove(1).IsNotFound());
}

TEST_F(ClusteringTest, AddRemoveIsIdentity) {
  ClusterSet cs(0.25);
  ASSERT_TRUE(cs.Add(1, V("goose eating stonewort")).ok());
  ASSERT_TRUE(cs.Add(2, V("goose eating plants")).ok());
  std::vector<std::vector<DocId>> before;
  for (const auto& g : cs.groups()) before.push_back(g.members);
  ASSERT_TRUE(cs.Add(99, V("totally unrelated telescope hardware")).ok());
  ASSERT_TRUE(cs.Remove(99).ok());
  std::vector<std::vector<DocId>> after;
  for (const auto& g : cs.groups()) after.push_back(g.members);
  EXPECT_EQ(before, after);
}

TEST_F(ClusteringTest, MergeDisjointAppendsGroups) {
  ClusterSet a(0.9);
  ASSERT_TRUE(a.Add(1, V("alpha beta")).ok());
  ClusterSet b(0.9);
  ASSERT_TRUE(b.Add(2, V("gamma delta")).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumGroups(), 2u);
  EXPECT_EQ(a.NumDocuments(), 2u);
}

TEST_F(ClusteringTest, MergeSharedMembersNotDoubleCounted) {
  // The same annotation (doc 5) is attached to both tuples (Figure 2's
  // "five common annotations" case).
  ClusterSet a(0.2);
  ASSERT_TRUE(a.Add(5, V("goose eating stonewort")).ok());
  ASSERT_TRUE(a.Add(6, V("goose eating plants")).ok());
  ClusterSet b(0.2);
  ASSERT_TRUE(b.Add(5, V("goose eating stonewort")).ok());
  ASSERT_TRUE(b.Add(7, V("stonewort eaten by birds")).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumDocuments(), 3u);  // 5, 6, 7 — doc 5 counted once.
  size_t total_members = 0;
  for (const auto& g : a.groups()) total_members += g.size();
  EXPECT_EQ(total_members, 3u);
}

TEST_F(ClusteringTest, MergeOverlappingGroupsCombine) {
  ClusterSet a(0.99);  // Strict: nothing auto-joins.
  ASSERT_TRUE(a.Add(1, V("one two")).ok());
  ASSERT_TRUE(a.Add(2, V("three four")).ok());
  ClusterSet b(0.99);
  ASSERT_TRUE(b.Add(1, V("one two")).ok());
  ASSERT_TRUE(b.Add(3, V("five six")).ok());
  // b's group {1,3}? No: strict threshold separates them; b has {1} and {3}.
  ASSERT_EQ(b.NumGroups(), 2u);
  ASSERT_TRUE(a.Merge(b).ok());
  // Group containing 1 stays a single group; 3 arrives as its own group.
  EXPECT_EQ(a.NumDocuments(), 3u);
  EXPECT_EQ(a.NumGroups(), 3u);
}

TEST_F(ClusteringTest, MergeBridgingGroupCombinesLocalGroups) {
  ClusterSet a(0.99);
  ASSERT_TRUE(a.Add(1, V("one two")).ok());
  ASSERT_TRUE(a.Add(2, V("three four")).ok());
  ASSERT_EQ(a.NumGroups(), 2u);
  // `b` holds docs 1 and 2 in ONE group (loose threshold): merging must
  // bridge a's two groups into one.
  ClusterSet b(0.0);
  ASSERT_TRUE(b.Add(1, V("one two")).ok());
  ASSERT_TRUE(b.Add(2, V("three four")).ok());
  ASSERT_EQ(b.NumGroups(), 1u);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.NumGroups(), 1u);
  EXPECT_EQ(a.groups()[0].members, (std::vector<DocId>{1, 2}));
}

TEST_F(ClusteringTest, MergeCommutativeOnMembership) {
  auto build = [&](std::vector<std::pair<DocId, std::string>> docs) {
    ClusterSet cs(0.3);
    for (auto& [id, text] : docs) EXPECT_TRUE(cs.Add(id, V(text)).ok());
    return cs;
  };
  auto a1 = build({{1, "goose eating stonewort"}, {2, "wingspan anatomy size"}});
  auto b1 = build({{3, "goose eating plants stonewort"}, {4, "disease influenza"}});
  auto a2 = build({{1, "goose eating stonewort"}, {2, "wingspan anatomy size"}});
  auto b2 = build({{3, "goose eating plants stonewort"}, {4, "disease influenza"}});
  ASSERT_TRUE(a1.Merge(b1).ok());
  ASSERT_TRUE(b2.Merge(a2).ok());
  EXPECT_EQ(a1.NumDocuments(), b2.NumDocuments());
  EXPECT_TRUE(a1.SameGrouping(b2));
}

TEST_F(ClusteringTest, GroupMembersAccessor) {
  ClusterSet cs;
  ASSERT_TRUE(cs.Add(42, V("hello world")).ok());
  auto members = cs.GroupMembers(0);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(*members, (std::vector<DocId>{42}));
  EXPECT_TRUE(cs.GroupMembers(5).status().IsOutOfRange());
}

TEST_F(ClusteringTest, EmptyTextDocumentsCluster) {
  ClusterSet cs;
  // Zero vectors have 0 cosine to everything: each seeds its own group.
  ASSERT_TRUE(cs.Add(1, V("")).ok());
  ASSERT_TRUE(cs.Add(2, V("")).ok());
  EXPECT_EQ(cs.NumGroups(), 2u);
}

// --- Property: maintained centroids and elections match a refold ----------

/// Vectors by document id, serving as the ClusterSet's DocVectorStore.
class MapStore : public DocVectorStore {
 public:
  const txt::SparseVector* GetVector(DocId doc) const override {
    auto it = vectors_.find(doc);
    return it == vectors_.end() ? nullptr : &it->second;
  }
  std::map<DocId, txt::SparseVector> vectors_;
};

/// Sum of the member vectors folded in ascending id order.
txt::SparseVector Refold(const std::vector<DocId>& members, const MapStore& store) {
  txt::SparseVector centroid;
  for (DocId doc : members) centroid.AddScaled(*store.GetVector(doc), 1.0);
  return centroid;
}

/// Reference election: the member closest to the refolded centroid, ties
/// to the lowest id (the election ClusterSet made before it elected
/// against the maintained centroid_sum).
DocId OracleRepresentative(const std::vector<DocId>& members, const MapStore& store) {
  txt::SparseVector centroid = Refold(members, store);
  double best_sim = -1.0;
  DocId best = members.front();
  for (DocId doc : members) {
    double sim = centroid.Cosine(*store.GetVector(doc));
    if (sim > best_sim) {
      best_sim = sim;
      best = doc;
    }
  }
  return best;
}

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

class ClusterPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr DocId kDocs = 60;

  void SetUp() override {
    static const char* kWords[] = {"goose",   "swan",    "eating",  "stonewort", "lake",
                                   "wingspan", "weight", "beak",    "influenza", "parasite",
                                   "flying",  "nest",    "feather", "migration", "river"};
    Random rng(GetParam());
    TextVectorizer vectorizer;
    for (DocId doc = 0; doc < kDocs; ++doc) {
      // Documents draw from one of three overlapping topics, with repeats,
      // so groups form, grow and bridge.
      size_t topic = rng.Uniform(3) * 5;
      std::string text;
      size_t words = 1 + rng.Uniform(8);
      for (size_t w = 0; w < words; ++w) {
        text += kWords[(topic + rng.Uniform(7)) % std::size(kWords)];
        text += ' ';
      }
      store_.vectors_[doc] = vectorizer.Vectorize(text);
    }
  }

  /// Representatives by member list.
  static std::map<std::vector<DocId>, DocId> Reps(const ClusterSet& cs) {
    std::map<std::vector<DocId>, DocId> reps;
    for (const ClusterGroup& g : cs.groups()) reps[g.members] = g.representative;
    return reps;
  }

  /// Checks every group against the oracle after one operation. `removed`
  /// is the document a Remove dropped (kDocs otherwise): its group re-elects
  /// only when the representative itself left.
  void CheckAgainstOracle(const ClusterSet& cs,
                          const std::map<std::vector<DocId>, DocId>& before,
                          DocId removed) {
    for (const ClusterGroup& g : cs.groups()) {
      ASSERT_TRUE(SameEntries(g.centroid_sum, Refold(g.members, store_)));
      if (before.contains(g.members)) continue;  // Membership unchanged.
      DocId expected = OracleRepresentative(g.members, store_);
      if (removed != kDocs) {
        std::vector<DocId> old_members = g.members;
        old_members.insert(
            std::lower_bound(old_members.begin(), old_members.end(), removed), removed);
        auto it = before.find(old_members);
        ASSERT_NE(it, before.end());
        if (it->second != removed) expected = it->second;
      }
      ASSERT_EQ(g.representative, expected);
    }
  }

  MapStore store_;
};

TEST_P(ClusterPropertyTest, CentroidAndRepresentativeMatchRefold) {
  Random rng(GetParam() * 31 + 7);
  ClusterSet cs(0.3, &store_);
  for (int step = 0; step < 300; ++step) {
    auto before = Reps(cs);
    uint64_t op = rng.Uniform(10);
    DocId removed = kDocs;
    if (op < 5) {
      DocId doc = rng.Uniform(kDocs);
      if (cs.Contains(doc)) continue;
      ASSERT_TRUE(cs.Add(doc, *store_.GetVector(doc)).ok());
    } else if (op < 8) {
      if (cs.NumDocuments() == 0) continue;
      DocId doc = rng.Uniform(kDocs);
      while (!cs.Contains(doc)) doc = (doc + 1) % kDocs;
      ASSERT_TRUE(cs.Remove(doc).ok());
      removed = doc;
    } else {
      // Merge a set built at a random threshold: it may share members with
      // `cs`, bridge several of its groups, or be disjoint.
      ClusterSet other(0.1 * static_cast<double>(rng.Uniform(7)), &store_);
      size_t n = 1 + rng.Uniform(6);
      for (size_t k = 0; k < n; ++k) {
        DocId doc = rng.Uniform(kDocs);
        if (other.Contains(doc)) continue;
        ASSERT_TRUE(other.Add(doc, *store_.GetVector(doc)).ok());
      }
      ASSERT_TRUE(cs.Merge(other).ok());
    }
    CheckAgainstOracle(cs, before, removed);
    if (HasFatalFailure()) return;
  }
}

TEST_P(ClusterPropertyTest, StandaloneModeMatchesStoreMode) {
  // Without a store the set keeps its own copies of member vectors; the
  // same operations must yield the same groups, centroids and elections.
  Random rng(GetParam() * 17 + 3);
  ClusterSet with_store(0.3, &store_);
  ClusterSet standalone(0.3);
  for (int step = 0; step < 200; ++step) {
    DocId doc = rng.Uniform(kDocs);
    if (with_store.Contains(doc)) {
      ASSERT_TRUE(with_store.Remove(doc).ok());
      ASSERT_TRUE(standalone.Remove(doc).ok());
    } else {
      ASSERT_TRUE(with_store.Add(doc, *store_.GetVector(doc)).ok());
      ASSERT_TRUE(standalone.Add(doc, *store_.GetVector(doc)).ok());
    }
    ASSERT_EQ(with_store.NumGroups(), standalone.NumGroups());
    for (size_t i = 0; i < with_store.NumGroups(); ++i) {
      const ClusterGroup& a = with_store.groups()[i];
      const ClusterGroup& b = standalone.groups()[i];
      ASSERT_EQ(a.members, b.members);
      ASSERT_EQ(a.representative, b.representative);
      ASSERT_TRUE(SameEntries(a.centroid_sum, b.centroid_sum));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest, ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace insightnotes::mining
