#include "rel/index.h"

#include <algorithm>

namespace insightnotes::rel {

namespace {
int TypeClass(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kFloat64:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}
}  // namespace

bool ValueLess::operator()(const Value& a, const Value& b) const {
  int ca = TypeClass(a);
  int cb = TypeClass(b);
  if (ca != cb) return ca < cb;
  auto cmp = a.Compare(b);
  // Same type class => Compare cannot fail.
  return cmp.ok() && *cmp < 0;
}

void OrderedIndex::Insert(const Value& key, RowId row) {
  map_[key].push_back(row);
  ++num_entries_;
}

Status OrderedIndex::Remove(const Value& key, RowId row) {
  auto it = map_.find(key);
  if (it == map_.end()) return Status::NotFound("key not in index");
  auto& rows = it->second;
  auto pos = std::find(rows.begin(), rows.end(), row);
  if (pos == rows.end()) return Status::NotFound("row not in index for key");
  rows.erase(pos);
  if (rows.empty()) map_.erase(it);
  --num_entries_;
  return Status::OK();
}

void OrderedIndex::LookupInto(const Value& key, std::vector<RowId>* out) const {
  auto it = map_.find(key);
  if (it != map_.end()) out->insert(out->end(), it->second.begin(), it->second.end());
}

void OrderedIndex::RangeInto(const Value* lo, const Value* hi,
                             std::vector<RowId>* out) const {
  // Reversed bounds would put `begin` past `end`, and the != walk below
  // would run off the map. An empty range is the only sane answer.
  if (lo != nullptr && hi != nullptr && ValueLess{}(*hi, *lo)) return;
  auto begin = lo != nullptr ? map_.lower_bound(*lo) : map_.begin();
  auto end = hi != nullptr ? map_.upper_bound(*hi) : map_.end();
  for (auto it = begin; it != end; ++it) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
}

}  // namespace insightnotes::rel
