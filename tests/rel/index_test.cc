#include "rel/index.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace insightnotes::rel {
namespace {

Value I(int64_t v) { return Value(v); }

TEST(OrderedIndexTest, RangeQueries) {
  OrderedIndex idx;
  for (int64_t i = 0; i < 10; ++i) idx.Insert(I(i), static_cast<RowId>(i * 10));
  Value lo = I(3);
  Value hi = I(6);
  auto rows = idx.Range(&lo, &hi);
  EXPECT_EQ(rows, (std::vector<RowId>{30, 40, 50, 60}));
}

TEST(OrderedIndexTest, UnboundedRanges) {
  OrderedIndex idx;
  for (int64_t i = 0; i < 5; ++i) idx.Insert(I(i), static_cast<RowId>(i));
  Value hi = I(1);
  EXPECT_EQ(idx.Range(nullptr, &hi), (std::vector<RowId>{0, 1}));
  Value lo = I(3);
  EXPECT_EQ(idx.Range(&lo, nullptr), (std::vector<RowId>{3, 4}));
  EXPECT_EQ(idx.Range(nullptr, nullptr).size(), 5u);
}

TEST(OrderedIndexTest, EmptyRange) {
  OrderedIndex idx;
  idx.Insert(I(1), 1);
  Value lo = I(5);
  Value hi = I(9);
  EXPECT_TRUE(idx.Range(&lo, &hi).empty());
}

TEST(OrderedIndexTest, RemoveAndLookup) {
  OrderedIndex idx;
  idx.Insert(Value("a"), 1);
  idx.Insert(Value("b"), 2);
  ASSERT_TRUE(idx.Remove(Value("a"), 1).ok());
  EXPECT_TRUE(idx.Lookup(Value("a")).empty());
  EXPECT_EQ(idx.Lookup(Value("b")), (std::vector<RowId>{2}));
}

TEST(ValueLessTest, MixedTypesHaveTotalOrder) {
  ValueLess less;
  Value null = Value::Null();
  Value num = I(5);
  Value str = Value("a");
  EXPECT_TRUE(less(null, num));
  EXPECT_TRUE(less(num, str));
  EXPECT_TRUE(less(null, str));
  EXPECT_FALSE(less(str, num));
  EXPECT_FALSE(less(num, num));
  // Strict weak ordering sanity: !(a<b) && !(b<a) for equal values.
  EXPECT_FALSE(less(I(5), Value(5.0)));
  EXPECT_FALSE(less(Value(5.0), I(5)));
}

TEST(OrderedIndexTest, RangeIntoAppendsToExistingRows) {
  OrderedIndex idx;
  for (int64_t i = 0; i < 5; ++i) idx.Insert(I(i), static_cast<RowId>(i));
  std::vector<RowId> out = {99};
  Value lo = I(1), hi = I(3);
  idx.RangeInto(&lo, &hi, &out);
  EXPECT_EQ(out, (std::vector<RowId>{99, 1, 2, 3}));
  idx.LookupInto(I(4), &out);
  EXPECT_EQ(out, (std::vector<RowId>{99, 1, 2, 3, 4}));
}

// Regression: reversed bounds (hi < lo) used to seed the walk with
// begin past end — unterminated iteration over invalid iterators (UB).
// They must yield an empty result instead, for same-type and cross-type
// reversals alike (the planner widens strict bounds but never reorders
// user-supplied constants).
TEST(OrderedIndexTest, ReversedBoundsYieldEmpty) {
  OrderedIndex idx;
  for (int64_t i = 0; i < 10; ++i) idx.Insert(I(i), static_cast<RowId>(i));
  idx.Insert(Value("z"), 100);
  Value lo = I(7), hi = I(2);
  EXPECT_TRUE(idx.Range(&lo, &hi).empty());
  std::vector<RowId> out = {99};
  idx.RangeInto(&lo, &hi, &out);
  EXPECT_EQ(out, (std::vector<RowId>{99}));  // Untouched, not grown.
  Value slo = Value("z"), shi = I(5);  // Cross-type: string > every int.
  idx.RangeInto(&slo, &shi, &out);
  EXPECT_EQ(out, (std::vector<RowId>{99}));
  Value eq = I(4);  // Equal bounds are NOT reversed: inclusive singleton.
  idx.RangeInto(&eq, &eq, &out);
  EXPECT_EQ(out, (std::vector<RowId>{99, 4}));
}

TEST(OrderedIndexTest, MixedTypeKeysDoNotCrash) {
  OrderedIndex idx;
  idx.Insert(Value::Null(), 0);
  idx.Insert(I(1), 1);
  idx.Insert(Value("z"), 2);
  EXPECT_EQ(idx.NumEntries(), 3u);
  EXPECT_EQ(idx.Range(nullptr, nullptr).size(), 3u);
}

}  // namespace
}  // namespace insightnotes::rel
