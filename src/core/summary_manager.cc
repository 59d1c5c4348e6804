#include "core/summary_manager.h"

#include <algorithm>
#include <future>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace insightnotes::core {

void PartialSummaryState::Seed(AnnotatedTuple* first, bool whole_row,
                               size_t reserve_hint) {
  whole_row_ = whole_row;
  summaries_ = std::move(first->summaries);
  if (whole_row) {
    // The group's output row carries whole-row references: strip the
    // per-column coverage of the seed tuple's attachments.
    attachments_.reserve(std::max(reserve_hint, first->attachments.size()));
    for (const AttachmentInfo& att : first->attachments) {
      attachments_.push_back(AttachmentInfo{att.id, {}});
    }
  } else {
    attachments_ = std::move(first->attachments);
    attachments_.reserve(std::max(reserve_hint, attachments_.size()));
  }
}

Status PartialSummaryState::Fold(const AnnotatedTuple& dup) {
  INSIGHTNOTES_RETURN_IF_ERROR(MergeSummaryLists(&summaries_, dup.summaries));
  if (whole_row_) {
    // Whole-row union: append each annotation id not seen yet. Equivalent
    // to stripping the duplicate's columns and running the full attachment
    // merge (all entries are whole-row, so unioning column sets is a
    // no-op), minus the per-duplicate allocation.
    for (const AttachmentInfo& att : dup.attachments) {
      bool seen = false;
      for (const AttachmentInfo& have : attachments_) {
        if (have.id == att.id) {
          seen = true;
          break;
        }
      }
      if (!seen) attachments_.push_back(AttachmentInfo{att.id, {}});
    }
    return Status::OK();
  }
  MergeAttachmentLists(&attachments_, dup.attachments, /*offset=*/0);
  return Status::OK();
}

Status PartialSummaryState::Combine(PartialSummaryState&& other) {
  INSIGHTNOTES_RETURN_IF_ERROR(MergeSummaryLists(&summaries_, other.summaries_));
  if (whole_row_) {
    attachments_.reserve(attachments_.size() + other.attachments_.size());
    for (const AttachmentInfo& att : other.attachments_) {
      bool seen = false;
      for (const AttachmentInfo& have : attachments_) {
        if (have.id == att.id) {
          seen = true;
          break;
        }
      }
      if (!seen) attachments_.push_back(AttachmentInfo{att.id, {}});
    }
    return Status::OK();
  }
  MergeAttachmentLists(&attachments_, other.attachments_, /*offset=*/0);
  return Status::OK();
}

void PartialSummaryState::Release(AnnotatedTuple* out) {
  out->summaries = std::move(summaries_);
  out->attachments = std::move(attachments_);
}

Status SummaryManager::RegisterInstance(std::unique_ptr<SummaryInstance> instance) {
  const std::string& name = instance->name();
  if (instances_.contains(name)) {
    return Status::AlreadyExists("summary instance '" + name + "' already registered");
  }
  instances_.emplace(name, std::move(instance));
  return Status::OK();
}

Result<SummaryInstance*> SummaryManager::GetInstance(const std::string& name) const {
  auto it = instances_.find(name);
  if (it == instances_.end()) {
    return Status::NotFound("summary instance '" + name + "' not registered");
  }
  return it->second.get();
}

std::vector<std::string> SummaryManager::InstanceNames() const {
  std::vector<std::string> names;
  names.reserve(instances_.size());
  for (const auto& [name, instance] : instances_) names.push_back(name);
  return names;
}

Status SummaryManager::Link(const std::string& instance_name, rel::TableId table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(SummaryInstance * instance, GetInstance(instance_name));
  auto& linked = links_[table];
  if (std::find(linked.begin(), linked.end(), instance) != linked.end()) {
    return Status::AlreadyExists("instance '" + instance_name +
                                 "' already linked to table " + std::to_string(table));
  }
  linked.push_back(instance);
  // Summarize the table's existing annotations under the new instance.
  Status status = Status::OK();
  store_->ScanTable(table, [&](rel::RowId row, const ann::Attachment& att) {
    if (store_->IsArchived(att.annotation)) return true;
    auto note = store_->Get(att.annotation);
    if (!note.ok()) {
      status = note.status();
      return false;
    }
    SummaryObject* object = GetOrCreateObject(RowKey{table, row}, instance);
    Status s = ApplyToObject(object, instance, *note);
    if (!s.ok() && !s.IsAlreadyExists()) {
      MarkStale(RowKey{table, row});
      INSIGHTNOTES_LOG(Warning) << "summarizer '" << instance->name()
                                << "' failed while linking table " << table
                                << "; row " << row << " marked stale: " << s.ToString();
    }
    return true;
  });
  return status;
}

Status SummaryManager::Unlink(const std::string& instance_name, rel::TableId table) {
  INSIGHTNOTES_ASSIGN_OR_RETURN(SummaryInstance * instance, GetInstance(instance_name));
  auto it = links_.find(table);
  if (it == links_.end()) {
    return Status::NotFound("instance '" + instance_name + "' not linked to table " +
                            std::to_string(table));
  }
  auto pos = std::find(it->second.begin(), it->second.end(), instance);
  if (pos == it->second.end()) {
    return Status::NotFound("instance '" + instance_name + "' not linked to table " +
                            std::to_string(table));
  }
  it->second.erase(pos);
  // Drop this instance's objects on the table.
  for (auto& [key, objects] : objects_) {
    if (key.first != table) continue;
    objects.erase(std::remove_if(objects.begin(), objects.end(),
                                 [&](const std::unique_ptr<SummaryObject>& o) {
                                   return o->instance() == instance;
                                 }),
                  objects.end());
  }
  return Status::OK();
}

std::vector<SummaryInstance*> SummaryManager::LinkedTo(rel::TableId table) const {
  auto it = links_.find(table);
  return it == links_.end() ? std::vector<SummaryInstance*>{} : it->second;
}

bool SummaryManager::IsLinked(const std::string& instance_name,
                              rel::TableId table) const {
  auto instance = GetInstance(instance_name);
  if (!instance.ok()) return false;
  auto it = links_.find(table);
  if (it == links_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), *instance) != it->second.end();
}

Status SummaryManager::OnAnnotationAttached(ann::AnnotationId id,
                                            const ann::CellRegion& region) {
  if (store_->IsArchived(id)) return Status::OK();
  if (LinkedTo(region.table).empty()) return Status::OK();
  INSIGHTNOTES_ASSIGN_OR_RETURN(ann::Annotation note, store_->Get(id));
  return FoldAnnotation(note, region);
}

Status SummaryManager::FoldAnnotation(const ann::Annotation& note,
                                      const ann::CellRegion& region) {
  RowKey key{region.table, region.row};
  for (SummaryInstance* instance : LinkedTo(region.table)) {
    SummaryObject* object = GetOrCreateObject(key, instance);
    Status s = ApplyToObject(object, instance, note);
    // Re-attachment to the same row (column-set growth) is not an error. A
    // genuine summarizer failure degrades to a stale mark: the annotation
    // itself is durable, so the row can be repaired later.
    if (!s.ok() && !s.IsAlreadyExists()) {
      MarkStale(key);
      INSIGHTNOTES_LOG(Warning) << "summarizer '" << instance->name()
                                << "' failed on annotation " << note.id << "; row ("
                                << region.table << ", " << region.row
                                << ") marked stale: " << s.ToString();
    }
  }
  return Status::OK();
}

Status SummaryManager::ApplyToObject(SummaryObject* object, SummaryInstance* instance,
                                     const ann::Annotation& note) {
  if (fault_hook_) {
    INSIGHTNOTES_RETURN_IF_ERROR(fault_hook_(instance->name(), note));
  }
  return object->AddAnnotation(note);
}

void SummaryManager::MarkStale(const RowKey& key) {
  std::lock_guard<std::mutex> lock(stale_mutex_);
  stale_rows_.insert(key);
}

bool SummaryManager::IsStale(rel::TableId table, rel::RowId row) const {
  std::lock_guard<std::mutex> lock(stale_mutex_);
  return stale_rows_.contains(RowKey{table, row});
}

std::vector<std::pair<rel::TableId, rel::RowId>> SummaryManager::StaleRows() const {
  std::lock_guard<std::mutex> lock(stale_mutex_);
  return {stale_rows_.begin(), stale_rows_.end()};
}

Result<size_t> SummaryManager::RepairStale() {
  std::vector<RowKey> rows;
  {
    std::lock_guard<std::mutex> lock(stale_mutex_);
    rows.assign(stale_rows_.begin(), stale_rows_.end());
  }
  size_t repaired = 0;
  Status first_error = Status::OK();
  for (const RowKey& key : rows) {
    Status s = RebuildRow(key.first, key.second);
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(stale_mutex_);
      stale_rows_.erase(key);
      ++repaired;
    } else if (first_error.ok()) {
      first_error = s;  // Row stays stale for the next repair attempt.
    }
  }
  if (!first_error.ok()) return first_error;
  return repaired;
}

Status SummaryManager::ApplyAnnotationBatch(const std::vector<BatchAnnotation>& batch,
                                            ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1 || batch.size() <= 1) {
    for (const BatchAnnotation& item : batch) {
      if (item.note.archived || store_->IsArchived(item.note.id)) continue;
      INSIGHTNOTES_RETURN_IF_ERROR(FoldAnnotation(item.note, item.region));
    }
    return Status::OK();
  }

  // Per-item ingest plan: which instances maintain the target table, and
  // (for cluster instances) the parallel-tokenized body.
  struct ItemPlan {
    bool skip = false;
    std::vector<SummaryInstance*> linked;
    // tokens[k] corresponds to linked[k]; non-empty only for kCluster.
    std::vector<std::vector<std::string>> tokens;
  };
  std::vector<ItemPlan> plans(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchAnnotation& item = batch[i];
    ItemPlan& plan = plans[i];
    plan.linked = LinkedTo(item.region.table);
    plan.skip = plan.linked.empty() || item.note.archived ||
                store_->IsArchived(item.note.id);
    if (!plan.skip) plan.tokens.resize(plan.linked.size());
  }

  // Phase 1 — parallel tokenization (pure; no shared state).
  const size_t num_shards = pool->num_threads();
  {
    std::vector<std::future<void>> done;
    size_t chunk = (batch.size() + num_shards - 1) / num_shards;
    for (size_t begin = 0; begin < batch.size(); begin += chunk) {
      size_t end = std::min(batch.size(), begin + chunk);
      done.push_back(pool->Submit([&batch, &plans, begin, end]() {
        for (size_t i = begin; i < end; ++i) {
          if (plans[i].skip) continue;
          for (size_t k = 0; k < plans[i].linked.size(); ++k) {
            if (plans[i].linked[k]->type() != SummaryTypeKind::kCluster) continue;
            plans[i].tokens[k] = plans[i].linked[k]->TokenizeBody(batch[i].note);
          }
        }
      }));
    }
    for (auto& f : done) f.get();
  }

  // Phase 2 — serial, batch-order vocabulary fold: term ids end up exactly
  // as a serial ingest would assign them (determinism guarantee), and the
  // vectorize-once caches are warm before the shards start.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (plans[i].skip) continue;
    for (size_t k = 0; k < plans[i].linked.size(); ++k) {
      if (plans[i].linked[k]->type() != SummaryTypeKind::kCluster) continue;
      plans[i].linked[k]->CommitTokens(batch[i].note.id, plans[i].tokens[k]);
    }
  }

  // Phase 3 — serial object creation, so the objects_ map is structurally
  // frozen while shards mutate disjoint rows' objects.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (plans[i].skip) continue;
    RowKey key{batch[i].region.table, batch[i].region.row};
    for (SummaryInstance* instance : plans[i].linked) {
      GetOrCreateObject(key, instance);
    }
  }

  // Phase 4 — sharded fold. Shard ownership is by row id, so every object
  // is mutated by exactly one shard, and each shard folds its rows'
  // annotations in batch order — the same per-row order a serial ingest
  // applies.
  std::vector<std::future<Status>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards.push_back(pool->Submit([this, &batch, &plans, s, num_shards]() -> Status {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (plans[i].skip) continue;
        if (batch[i].region.row % num_shards != s) continue;
        auto it = objects_.find(RowKey{batch[i].region.table, batch[i].region.row});
        if (it == objects_.end()) {
          return Status::Internal("batch ingest: row objects missing");
        }
        for (SummaryInstance* instance : plans[i].linked) {
          SummaryObject* object = nullptr;
          for (const auto& candidate : it->second) {
            if (candidate->instance() == instance) {
              object = candidate.get();
              break;
            }
          }
          if (object == nullptr) {
            return Status::Internal("batch ingest: object missing for instance '" +
                                    instance->name() + "'");
          }
          Status st = ApplyToObject(object, instance, batch[i].note);
          if (!st.ok() && !st.IsAlreadyExists()) {
            // Per-tuple summarizer failure degrades to a stale mark instead
            // of failing the whole batch (MarkStale is mutex-guarded).
            MarkStale(RowKey{batch[i].region.table, batch[i].region.row});
            INSIGHTNOTES_LOG(Warning)
                << "summarizer '" << instance->name() << "' failed on annotation "
                << batch[i].note.id << " during batch ingest; row ("
                << batch[i].region.table << ", " << batch[i].region.row
                << ") marked stale: " << st.ToString();
          }
        }
      }
      return Status::OK();
    }));
  }
  Status result = Status::OK();
  for (auto& f : shards) {
    Status s = f.get();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Status SummaryManager::RebuildRow(rel::TableId table, rel::RowId row) {
  RowKey key{table, row};
  objects_.erase(key);
  for (const ann::Attachment& att : store_->OnRow(table, row)) {
    if (store_->IsArchived(att.annotation)) continue;
    INSIGHTNOTES_ASSIGN_OR_RETURN(ann::Annotation note, store_->Get(att.annotation));
    for (SummaryInstance* instance : LinkedTo(table)) {
      SummaryObject* object = GetOrCreateObject(key, instance);
      // Rebuild propagates summarizer errors (no degradation): RepairStale
      // relies on it to tell a repaired row from one that is still failing.
      Status s = ApplyToObject(object, instance, note);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
  }
  return Status::OK();
}

Result<std::vector<std::unique_ptr<SummaryObject>>> SummaryManager::SummariesFor(
    rel::TableId table, rel::RowId row) const {
  std::vector<std::unique_ptr<SummaryObject>> out;
  const auto* maintained = RowObjects(table, row);
  if (maintained != nullptr) {
    out.reserve(maintained->size());
    for (const auto& object : *maintained) out.push_back(object->Clone());
    return out;
  }
  // No annotations yet: empty objects, one per linked instance, so queries
  // always see a uniform summary shape.
  for (SummaryInstance* instance : LinkedTo(table)) {
    out.push_back(instance->NewObject());
  }
  return out;
}

const std::vector<std::unique_ptr<SummaryObject>>* SummaryManager::RowObjects(
    rel::TableId table, rel::RowId row) const {
  auto it = objects_.find(RowKey{table, row});
  return it == objects_.end() ? nullptr : &it->second;
}

SummaryObject* SummaryManager::GetOrCreateObject(const RowKey& key,
                                                 SummaryInstance* instance) {
  auto& objects = objects_[key];
  for (const auto& object : objects) {
    if (object->instance() == instance) return object.get();
  }
  objects.push_back(instance->NewObject());
  return objects.back().get();
}

}  // namespace insightnotes::core
