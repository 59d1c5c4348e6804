#include "core/summary_instance.h"

#include <algorithm>
#include <array>

#include "core/summary_object.h"

namespace insightnotes::core {

std::unique_ptr<SummaryInstance> SummaryInstance::MakeClassifier(
    std::string name, std::vector<std::string> labels, SummaryProperties properties) {
  auto instance = std::unique_ptr<SummaryInstance>(new SummaryInstance(
      std::move(name), SummaryTypeKind::kClassifier, properties));
  instance->classifier_ =
      std::make_unique<mining::NaiveBayesClassifier>(std::move(labels));
  return instance;
}

std::unique_ptr<SummaryInstance> SummaryInstance::MakeCluster(
    std::string name, double threshold, SummaryProperties properties) {
  // Cluster assignment inspects the tuple's existing groups, so the result
  // of summarizing an annotation is not annotation-invariant by definition.
  properties.annotation_invariant = false;
  auto instance = std::unique_ptr<SummaryInstance>(
      new SummaryInstance(std::move(name), SummaryTypeKind::kCluster, properties));
  instance->vectorizer_ = std::make_unique<mining::TextVectorizer>();
  instance->cluster_threshold_ = threshold;
  return instance;
}

std::unique_ptr<SummaryInstance> SummaryInstance::MakeSnippet(
    std::string name, mining::SnippetOptions options, SummaryProperties properties) {
  auto instance = std::unique_ptr<SummaryInstance>(
      new SummaryInstance(std::move(name), SummaryTypeKind::kSnippet, properties));
  instance->extractor_ = std::make_unique<mining::SnippetExtractor>(options);
  return instance;
}

std::unique_ptr<SummaryObject> SummaryInstance::NewObject() {
  switch (type_) {
    case SummaryTypeKind::kClassifier:
      return std::make_unique<ClassifierObject>(this);
    case SummaryTypeKind::kCluster:
      return std::make_unique<ClusterObject>(this);
    case SummaryTypeKind::kSnippet:
      return std::make_unique<SnippetObject>(this);
  }
  return nullptr;
}

size_t SummaryInstance::ClassifyAnnotation(const ann::Annotation& note) {
  if (properties_.SummarizeOnceEligible()) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = label_cache_.find(note.id);
    if (it != label_cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }
  // The classifier is const/stateless: concurrent shards classify unlocked.
  size_t label = classifier_->Classify(note.body);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++cache_misses_;
  if (properties_.SummarizeOnceEligible()) label_cache_.emplace(note.id, label);
  return label;
}

txt::SparseVector SummaryInstance::VectorizeAnnotation(const ann::Annotation& note) {
  // Vectorization is invariant even when cluster assignment is not. The
  // vector is ALWAYS retained here — cluster objects resolve member vectors
  // through this store (GetVector) so they stay lightweight. The invariant
  // property only controls whether a cached vector is *reused* (the
  // summarize-once optimization) or recomputed for accounting purposes.
  if (properties_.data_invariant) {
    if (const txt::SparseVector* cached = vectors_.Find(note.id)) {
      ++cache_hits_;
      return *cached;
    }
  }
  txt::SparseVector vec;
  {
    // The vectorizer grows the shared vocabulary: serialize it. Parallel
    // ingest avoids this path by committing tokens up front (CommitTokens),
    // so only non-data-invariant recomputation contends here.
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    vec = vectorizer_->Vectorize(note.body);
  }
  ++cache_misses_;
  // First writer wins: a vector already published for this id is
  // identical, and readers may hold GetVector pointers into it.
  std::lock_guard<std::mutex> lock(cache_mutex_);
  vectors_.Publish(note.id, vec);
  return vec;
}

std::string SummaryInstance::SummarizeDocument(const ann::Annotation& note) {
  if (properties_.SummarizeOnceEligible()) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = snippet_cache_.find(note.id);
    if (it != snippet_cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }
  // The extractor is const/stateless: concurrent shards summarize unlocked.
  std::string snippet = extractor_->Summarize(note.body);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++cache_misses_;
  if (properties_.SummarizeOnceEligible()) snippet_cache_.emplace(note.id, snippet);
  return snippet;
}

std::vector<std::string> SummaryInstance::TokenizeBody(const ann::Annotation& note) const {
  if (vectorizer_ == nullptr) return {};
  return vectorizer_->tokenizer().Tokenize(note.body);
}

void SummaryInstance::CommitTokens(ann::AnnotationId id,
                                   const std::vector<std::string>& tokens) {
  if (vectorizer_ == nullptr) return;
  if (vectors_.Find(id) != nullptr) return;  // Shared annotation: commit once.
  txt::SparseVector vec;
  {
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    vec = vectorizer_->VectorizeTokens(tokens);
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  vectors_.Publish(id, std::move(vec));
}

const txt::SparseVector* SummaryInstance::GetVector(mining::DocId doc) const {
  return vectors_.Find(doc);
}

namespace {
constexpr unsigned kChunkBits = 10;
constexpr size_t kChunkSize = size_t{1} << kChunkBits;
constexpr uint64_t kMaxIds = uint64_t{1} << 32;
}  // namespace

struct SummaryInstance::VectorStore::Chunk {
  std::array<txt::SparseVector, kChunkSize> vectors;
  std::array<std::atomic<bool>, kChunkSize> published{};
};

struct SummaryInstance::VectorStore::Directory {
  explicit Directory(size_t n) : chunks(new std::atomic<Chunk*>[n]()), size(n) {}
  std::unique_ptr<std::atomic<Chunk*>[]> chunks;
  size_t size;
};

SummaryInstance::VectorStore::VectorStore() = default;
SummaryInstance::VectorStore::~VectorStore() = default;

const txt::SparseVector* SummaryInstance::VectorStore::Find(uint64_t id) const {
  const Directory* dir = directory_.load(std::memory_order_acquire);
  uint64_t chunk_index = id >> kChunkBits;
  if (dir == nullptr || chunk_index >= dir->size) return nullptr;
  const Chunk* chunk = dir->chunks[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  size_t slot = id & (kChunkSize - 1);
  return chunk->published[slot].load(std::memory_order_acquire) ? &chunk->vectors[slot]
                                                                 : nullptr;
}

void SummaryInstance::VectorStore::Publish(uint64_t id, txt::SparseVector vec) {
  if (id >= kMaxIds) return;
  uint64_t chunk_index = id >> kChunkBits;
  Directory* dir = directories_.empty() ? nullptr : directories_.back().get();
  if (dir == nullptr || chunk_index >= dir->size) {
    size_t size = std::max<size_t>(chunk_index + 1, dir == nullptr ? 16 : 2 * dir->size);
    auto grown = std::make_unique<Directory>(size);
    for (size_t i = 0; dir != nullptr && i < dir->size; ++i) {
      grown->chunks[i].store(dir->chunks[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
    dir = grown.get();
    directories_.push_back(std::move(grown));
    directory_.store(dir, std::memory_order_release);
  }
  Chunk* chunk = dir->chunks[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk = chunks_.back().get();
    dir->chunks[chunk_index].store(chunk, std::memory_order_release);
  }
  size_t slot = id & (kChunkSize - 1);
  if (chunk->published[slot].load(std::memory_order_relaxed)) return;
  chunk->vectors[slot] = std::move(vec);
  chunk->published[slot].store(true, std::memory_order_release);
}

}  // namespace insightnotes::core
