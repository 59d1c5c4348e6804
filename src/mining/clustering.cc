#include "mining/clustering.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace insightnotes::mining {

namespace {

// Debug check of the ClusterSet precondition: every value is a whole
// number small enough that sums of them stay exact in a double.
[[maybe_unused]] bool IsExactCounts(const txt::SparseVector& vec) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  for (const txt::SparseVector::Entry& e : vec.entries()) {
    if (e.value != std::trunc(e.value) || std::fabs(e.value) >= kMaxExact) return false;
  }
  return true;
}

}  // namespace

txt::SparseVector TextVectorizer::Vectorize(std::string_view text) {
  return VectorizeTokens(tokenizer_.Tokenize(text));
}

txt::SparseVector TextVectorizer::VectorizeTokens(const std::vector<std::string>& tokens) {
  return txt::SparseVector::FromTokens(tokens, &vocab_);
}

void ClusterSet::TrackDoc(DocId doc) {
  docs_.insert(std::lower_bound(docs_.begin(), docs_.end(), doc), doc);
}

void ClusterSet::UntrackDoc(DocId doc) {
  auto it = std::lower_bound(docs_.begin(), docs_.end(), doc);
  if (it != docs_.end() && *it == doc) docs_.erase(it);
}

const txt::SparseVector* ClusterSet::VectorOf(DocId doc) const {
  if (store_ != nullptr) return store_->GetVector(doc);
  auto it = owned_vectors_.find(doc);
  return it == owned_vectors_.end() ? nullptr : &it->second;
}

Result<size_t> ClusterSet::Add(DocId doc, const txt::SparseVector& vec) {
  assert(IsExactCounts(vec) && "ClusterSet vectors must hold integer counts");
  if (Contains(doc)) {
    return Status::AlreadyExists("document " + std::to_string(doc) +
                                 " already clustered");
  }
  // Join the most similar group at or above the threshold; ties go to the
  // lowest group index (deterministic).
  size_t best = groups_.size();
  double best_sim = -1.0;
  for (size_t i = 0; i < groups_.size(); ++i) {
    double sim = groups_[i].SimilarityTo(vec);
    if (sim >= threshold_ && sim > best_sim) {
      best = i;
      best_sim = sim;
    }
  }
  TrackDoc(doc);
  if (store_ == nullptr) owned_vectors_.emplace(doc, vec);
  if (best == groups_.size()) {
    ClusterGroup group;
    group.centroid_sum = vec;
    group.members = {doc};
    group.representative = doc;
    groups_.push_back(std::move(group));
    return groups_.size() - 1;
  }
  ClusterGroup& group = groups_[best];
  group.centroid_sum.AddScaled(vec, 1.0);
  group.members.insert(
      std::lower_bound(group.members.begin(), group.members.end(), doc), doc);
  ElectRepresentative(&group);
  return best;
}

Status ClusterSet::Remove(DocId doc) {
  if (!Contains(doc)) {
    return Status::NotFound("document " + std::to_string(doc) + " not clustered");
  }
  const txt::SparseVector* vec = VectorOf(doc);
  if (vec == nullptr) {
    return Status::Internal("vector store has no vector for document " +
                            std::to_string(doc));
  }
  for (size_t i = 0; i < groups_.size(); ++i) {
    ClusterGroup& group = groups_[i];
    auto pos = std::lower_bound(group.members.begin(), group.members.end(), doc);
    if (pos == group.members.end() || *pos != doc) continue;
    group.members.erase(pos);
    group.centroid_sum.AddScaled(*vec, -1.0);
    UntrackDoc(doc);
    if (store_ == nullptr) owned_vectors_.erase(doc);
    if (group.members.empty()) {
      groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(i));
    } else if (group.representative == doc) {
      ElectRepresentative(&group);
    }
    return Status::OK();
  }
  return Status::Internal("document tracked but not in any group");
}

Status ClusterSet::Merge(const ClusterSet& other) {
  for (const ClusterGroup& incoming : other.groups_) {
    // Partition incoming members into ones we already hold (shared
    // annotations — must not be double counted) and genuinely new ones.
    std::vector<DocId> fresh;
    // Indexes of local groups the incoming group overlaps with.
    std::vector<size_t> overlapping;
    for (DocId doc : incoming.members) {
      if (!Contains(doc)) {
        fresh.push_back(doc);
        continue;
      }
      for (size_t i = 0; i < groups_.size(); ++i) {
        const auto& members = groups_[i].members;
        if (std::binary_search(members.begin(), members.end(), doc)) {
          if (std::find(overlapping.begin(), overlapping.end(), i) ==
              overlapping.end()) {
            overlapping.push_back(i);
          }
          break;
        }
      }
    }

    auto vector_for = [&](DocId doc) -> Result<const txt::SparseVector*> {
      const txt::SparseVector* vec = other.VectorOf(doc);
      if (vec == nullptr) {
        return Status::Internal("merge source missing vector for document " +
                                std::to_string(doc));
      }
      return vec;
    };

    if (overlapping.empty()) {
      // Disjoint group: append as-is.
      ClusterGroup group;
      group.members = incoming.members;
      for (DocId doc : incoming.members) {
        INSIGHTNOTES_ASSIGN_OR_RETURN(const txt::SparseVector* vec, vector_for(doc));
        TrackDoc(doc);
        if (store_ == nullptr) owned_vectors_.emplace(doc, *vec);
        group.centroid_sum.AddScaled(*vec, 1.0);
      }
      ElectRepresentative(&group);
      groups_.push_back(std::move(group));
      continue;
    }

    // Combine all overlapping local groups into the first one.
    std::sort(overlapping.begin(), overlapping.end());
    ClusterGroup& target = groups_[overlapping.front()];
    for (size_t k = overlapping.size(); k-- > 1;) {
      ClusterGroup& victim = groups_[overlapping[k]];
      for (DocId doc : victim.members) {
        target.members.insert(
            std::lower_bound(target.members.begin(), target.members.end(), doc), doc);
      }
      target.centroid_sum.AddScaled(victim.centroid_sum, 1.0);
      groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(overlapping[k]));
    }
    // Fold in the fresh members of the incoming group.
    for (DocId doc : fresh) {
      INSIGHTNOTES_ASSIGN_OR_RETURN(const txt::SparseVector* vec, vector_for(doc));
      TrackDoc(doc);
      if (store_ == nullptr) owned_vectors_.emplace(doc, *vec);
      target.members.insert(
          std::lower_bound(target.members.begin(), target.members.end(), doc), doc);
      target.centroid_sum.AddScaled(*vec, 1.0);
    }
    ElectRepresentative(&target);
  }
  return Status::OK();
}

Result<std::vector<DocId>> ClusterSet::GroupMembers(size_t index) const {
  if (index >= groups_.size()) {
    return Status::OutOfRange("cluster group " + std::to_string(index) +
                              " out of range");
  }
  return groups_[index].members;
}

bool ClusterSet::SameGrouping(const ClusterSet& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  auto key = [](const ClusterSet& cs) {
    std::vector<std::vector<DocId>> groups;
    groups.reserve(cs.groups_.size());
    for (const ClusterGroup& g : cs.groups_) groups.push_back(g.members);
    std::sort(groups.begin(), groups.end());
    return groups;
  };
  return key(*this) == key(other);
}

void ClusterSet::ElectRepresentative(ClusterGroup* group) const {
  // centroid_sum is an exact sum of integer counts (see the precondition on
  // ClusterSet), so it equals a refold of the member vectors in any order
  // and the representative is a pure function of the member set.
  double centroid_norm = group->centroid_sum.Norm();
  double best_sim = -1.0;
  DocId best = group->members.empty() ? 0 : group->members.front();
  for (DocId doc : group->members) {
    const txt::SparseVector* vec = VectorOf(doc);
    if (vec == nullptr) continue;
    double sim = group->centroid_sum.Cosine(*vec, centroid_norm);
    if (sim > best_sim) {
      best_sim = sim;
      best = doc;
    }
  }
  group->representative = best;
}

}  // namespace insightnotes::mining
