#include "txt/tfidf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "txt/vocabulary.h"

namespace insightnotes::txt {
namespace {

TEST(VocabularyTest, InternsTerms) {
  Vocabulary v;
  TermId a = v.GetOrAdd("swan");
  TermId b = v.GetOrAdd("goose");
  TermId a2 = v.GetOrAdd("swan");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.TermOf(a), "swan");
  EXPECT_EQ(v.Lookup("goose"), b);
  EXPECT_EQ(v.Lookup("heron"), kInvalidTermId);
}

TEST(VocabularyTest, IdfDecreasesWithDocumentFrequency) {
  Vocabulary v;
  TermId common = v.GetOrAdd("bird");
  TermId rare = v.GetOrAdd("stonewort");
  for (int i = 0; i < 100; ++i) {
    v.BumpDocumentCount();
    v.BumpDocumentFrequency(common);
  }
  v.BumpDocumentFrequency(rare);
  EXPECT_LT(v.Idf(common), v.Idf(rare));
}

TEST(SparseVectorTest, FromTokensCountsTerms) {
  Vocabulary vocab;
  SparseVector v = SparseVector::FromTokens({"a", "b", "a", "c", "a"}, &vocab);
  EXPECT_EQ(v.NumNonZero(), 3u);
  EXPECT_DOUBLE_EQ(v.Get(vocab.Lookup("a")), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(vocab.Lookup("b")), 1.0);
  EXPECT_DOUBLE_EQ(v.Get(vocab.Lookup("c")), 1.0);
}

TEST(SparseVectorTest, FromTokensConstSkipsUnknown) {
  Vocabulary vocab;
  vocab.GetOrAdd("known");
  SparseVector v = SparseVector::FromTokensConst({"known", "unknown"}, vocab);
  EXPECT_EQ(v.NumNonZero(), 1u);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(SparseVectorTest, SetGetAndErase) {
  SparseVector v;
  v.Set(5, 2.0);
  v.Set(1, 1.0);
  v.Set(9, 3.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(2), 0.0);
  v.Set(5, 0.0);  // Erase.
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
  EXPECT_EQ(v.NumNonZero(), 2u);
}

TEST(SparseVectorTest, EntriesStaySorted) {
  SparseVector v;
  v.Set(9, 1.0);
  v.Set(1, 1.0);
  v.Set(5, 1.0);
  TermId prev = 0;
  for (const auto& e : v.entries()) {
    EXPECT_GE(e.term, prev);
    prev = e.term;
  }
}

TEST(SparseVectorTest, AddScaledMerges) {
  SparseVector a;
  a.Set(1, 1.0);
  a.Set(2, 2.0);
  SparseVector b;
  b.Set(2, 3.0);
  b.Set(4, 4.0);
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(a.Get(2), 8.0);
  EXPECT_DOUBLE_EQ(a.Get(4), 8.0);
}

TEST(SparseVectorTest, AddScaledSubsetUpdatesInPlace) {
  // Every term of `b` is present in `a`: the in-place path must match the
  // merge path term for term, dropping entries that cancel.
  SparseVector a;
  a.Set(1, 3.0);
  a.Set(2, 2.0);
  a.Set(5, 1.0);
  a.Set(9, 4.0);
  SparseVector b;
  b.Set(2, 2.0);
  b.Set(9, 1.0);
  const SparseVector::Entry* data = a.entries().data();
  a.AddScaled(b, -1.0);
  EXPECT_EQ(a.entries().data(), data);  // No reallocation.
  ASSERT_EQ(a.NumNonZero(), 3u);
  EXPECT_EQ(a.Get(1), 3.0);
  EXPECT_EQ(a.Get(2), 0.0);
  EXPECT_EQ(a.Get(5), 1.0);
  EXPECT_EQ(a.Get(9), 3.0);
  // A term of `b` missing from `a` takes the merge path.
  SparseVector c;
  c.Set(7, 2.0);
  a.AddScaled(c, 1.0);
  ASSERT_EQ(a.NumNonZero(), 4u);
  EXPECT_EQ(a.Get(7), 2.0);
  // Adding the empty vector is a no-op.
  a.AddScaled(SparseVector(), 1.0);
  EXPECT_EQ(a.NumNonZero(), 4u);
}

TEST(SparseVectorTest, CosineWithPrecomputedNormIsBitIdentical) {
  SparseVector a;
  a.Set(1, 3.0);
  a.Set(4, 1.0);
  a.Set(6, 2.0);
  SparseVector b;
  b.Set(1, 1.0);
  b.Set(6, 5.0);
  EXPECT_EQ(a.Cosine(b, a.Norm()), a.Cosine(b));
  EXPECT_EQ(a.Cosine(SparseVector(), a.Norm()), 0.0);
}

TEST(SparseVectorTest, AddScaledCancellationRemovesEntry) {
  SparseVector a;
  a.Set(3, 5.0);
  SparseVector b;
  b.Set(3, 5.0);
  a.AddScaled(b, -1.0);
  EXPECT_EQ(a.NumNonZero(), 0u);
  EXPECT_TRUE(a.empty());
}

TEST(SparseVectorTest, DotAndNorm) {
  SparseVector a;
  a.Set(1, 3.0);
  a.Set(2, 4.0);
  SparseVector b;
  b.Set(2, 2.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), 8.0);
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
}

TEST(SparseVectorTest, CosineProperties) {
  SparseVector a;
  a.Set(1, 1.0);
  a.Set(2, 1.0);
  SparseVector scaled;
  scaled.Set(1, 10.0);
  scaled.Set(2, 10.0);
  SparseVector orthogonal;
  orthogonal.Set(3, 1.0);
  SparseVector zero;
  EXPECT_NEAR(a.Cosine(scaled), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.Cosine(orthogonal), 0.0);
  EXPECT_DOUBLE_EQ(a.Cosine(zero), 0.0);
  EXPECT_DOUBLE_EQ(zero.Cosine(zero), 0.0);
  // Symmetry.
  SparseVector c;
  c.Set(1, 2.0);
  c.Set(3, 1.0);
  EXPECT_DOUBLE_EQ(a.Cosine(c), c.Cosine(a));
}

TEST(SparseVectorTest, NormalizedHasUnitNorm) {
  SparseVector a;
  a.Set(1, 3.0);
  a.Set(2, 4.0);
  SparseVector n = a.Normalized();
  EXPECT_NEAR(n.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.Get(1), 0.6, 1e-12);
  SparseVector zero;
  EXPECT_TRUE(zero.Normalized().empty());
}

}  // namespace
}  // namespace insightnotes::txt
