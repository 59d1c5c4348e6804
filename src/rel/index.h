// Value ordering and hashing functors, plus the in-memory ordered index
// that backs a table's secondary index (rel::TableIndex) for equality and
// range probes when the table is not persisted in a B+-tree.

#ifndef INSIGHTNOTES_REL_INDEX_H_
#define INSIGHTNOTES_REL_INDEX_H_

#include <map>
#include <vector>

#include "common/result.h"
#include "rel/tuple.h"
#include "rel/value.h"

namespace insightnotes::rel {

/// Total order over Values usable as a map comparator: orders first by type
/// class (NULL < numeric < string), then by value within the class. This
/// sidesteps the TypeError a raw Value::Compare would raise for mixed types.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const;
};

/// Hash functor/equality pair for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return static_cast<size_t>(v.Hash()); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};

/// Ordered index supporting range queries [lo, hi] (either bound optional).
class OrderedIndex {
 public:
  void Insert(const Value& key, RowId row);
  Status Remove(const Value& key, RowId row);
  /// Append-into probe paths (no per-probe vector allocation). Reversed
  /// bounds (hi < lo) yield an empty result.
  void LookupInto(const Value& key, std::vector<RowId>* out) const;
  void RangeInto(const Value* lo, const Value* hi, std::vector<RowId>* out) const;
  std::vector<RowId> Lookup(const Value& key) const {
    std::vector<RowId> out;
    LookupInto(key, &out);
    return out;
  }
  /// Rows with lo <= key <= hi. Null bounds mean unbounded.
  std::vector<RowId> Range(const Value* lo, const Value* hi) const {
    std::vector<RowId> out;
    RangeInto(lo, hi, &out);
    return out;
  }
  size_t NumEntries() const { return num_entries_; }

 private:
  std::map<Value, std::vector<RowId>, ValueLess> map_;
  size_t num_entries_ = 0;
};

}  // namespace insightnotes::rel

#endif  // INSIGHTNOTES_REL_INDEX_H_
