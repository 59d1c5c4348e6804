// Online single-pass (leader-follower) text clustering with centroid
// maintenance and representative election — the kernel behind Cluster-type
// summary objects (cf. text-stream clustering, the paper's reference [23]).
//
// A ClusterSet holds groups of similar documents. It supports the full
// algebra the summary layer needs:
//   * Add      — incremental maintenance on annotation insert,
//   * Remove   — projection trim (drop the effect of an annotation),
//   * Merge    — join/grouping, overlap-aware: groups sharing members are
//                combined (no double counting), disjoint groups are
//                concatenated — exactly Figure 2's SimCluster semantics.
// Representatives are re-elected deterministically (closest to centroid,
// ties to the lowest document id) whenever membership changes.

#ifndef INSIGHTNOTES_MINING_CLUSTERING_H_
#define INSIGHTNOTES_MINING_CLUSTERING_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "txt/tfidf.h"
#include "txt/tokenizer.h"
#include "txt/vocabulary.h"

namespace insightnotes::mining {

using DocId = uint64_t;

/// Source of document vectors for removal, merging and representative
/// election. When a ClusterSet is given a store, it does NOT retain member
/// vectors itself — cloning a cluster summary then costs O(members) ids
/// instead of O(members x terms) vector data. InsightNotes points this at
/// the summary instance's vectorize-once cache.
class DocVectorStore {
 public:
  virtual ~DocVectorStore() = default;
  /// Vector for `doc`, or nullptr if unknown.
  virtual const txt::SparseVector* GetVector(DocId doc) const = 0;
};

/// Turns raw text into sparse term vectors against a shared, growing
/// vocabulary. One vectorizer is shared by all summary objects of a cluster
/// instance so their vectors are comparable.
class TextVectorizer {
 public:
  TextVectorizer() = default;

  /// Tokenizes and counts; new terms extend the vocabulary.
  txt::SparseVector Vectorize(std::string_view text);

  /// Counts pre-tokenized terms; new terms extend the vocabulary. Lets
  /// parallel ingest tokenize off-thread and fold into the shared
  /// vocabulary in a deterministic serial pass.
  txt::SparseVector VectorizeTokens(const std::vector<std::string>& tokens);

  const txt::Tokenizer& tokenizer() const { return tokenizer_; }
  const txt::Vocabulary& vocabulary() const { return vocab_; }

 private:
  txt::Tokenizer tokenizer_;
  txt::Vocabulary vocab_;
};

/// One group of similar documents.
struct ClusterGroup {
  txt::SparseVector centroid_sum;  // Sum of member vectors.
  std::vector<DocId> members;      // Sorted ascending.
  DocId representative = 0;

  size_t size() const { return members.size(); }
  /// centroid_sum / |members| is the centroid; cosine is scale-invariant so
  /// similarity checks use centroid_sum directly.
  double SimilarityTo(const txt::SparseVector& vec) const {
    return centroid_sum.Cosine(vec);
  }
};

/// Precondition: every vector handed to a ClusterSet holds whole-number
/// term counts (as SparseVector::FromTokens builds them) below 2^53. Sums
/// and differences of such vectors are exact in double arithmetic, so each
/// group's maintained centroid_sum equals a fresh refold of its members no
/// matter in which order Add/Remove/Merge folded them; representative
/// election measures against it directly. Debug builds assert this in Add.
class ClusterSet {
 public:
  /// Documents join the most similar existing group when cosine similarity
  /// to its centroid is >= `threshold`, otherwise they seed a new group.
  /// With a null `store`, member vectors are retained internally
  /// (standalone mode); with a store, vectors are fetched on demand and the
  /// set stays lightweight.
  explicit ClusterSet(double threshold = 0.35, const DocVectorStore* store = nullptr)
      : threshold_(threshold), store_(store) {}

  /// Adds a document; returns the index of the group it joined.
  Result<size_t> Add(DocId doc, const txt::SparseVector& vec);

  /// Removes a document's effect (projection trim). Empty groups vanish;
  /// a dropped representative triggers re-election (Figure 2: A5 replaces
  /// the dropped A2).
  Status Remove(DocId doc);

  /// True if `doc` is a member of any group.
  bool Contains(DocId doc) const {
    return std::binary_search(docs_.begin(), docs_.end(), doc);
  }

  /// Overlap-aware merge (join semantics): groups of `other` sharing at
  /// least one member with a group here are combined without double
  /// counting; disjoint groups are appended.
  Status Merge(const ClusterSet& other);

  const std::vector<ClusterGroup>& groups() const { return groups_; }
  size_t NumGroups() const { return groups_.size(); }
  size_t NumDocuments() const { return docs_.size(); }
  double threshold() const { return threshold_; }

  /// Members of group `index`.
  Result<std::vector<DocId>> GroupMembers(size_t index) const;

  /// Deep equality of membership (groups compared as sorted member lists) —
  /// used by the plan-equivalence tests.
  bool SameGrouping(const ClusterSet& other) const;

 private:
  void ElectRepresentative(ClusterGroup* group) const;
  /// Vector for `doc` from the store or the owned map; nullptr if unknown.
  const txt::SparseVector* VectorOf(DocId doc) const;

  double threshold_;
  const DocVectorStore* store_;
  void TrackDoc(DocId doc);
  void UntrackDoc(DocId doc);

  std::vector<ClusterGroup> groups_;
  std::vector<DocId> docs_;  // All member ids, sorted (cheap to deep-copy).
  // Standalone mode only (store_ == nullptr): retained member vectors.
  std::map<DocId, txt::SparseVector> owned_vectors_;
};

}  // namespace insightnotes::mining

#endif  // INSIGHTNOTES_MINING_CLUSTERING_H_
