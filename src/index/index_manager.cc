#include "index/index_manager.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// Online-build delta observability (DESIGN.md §11): buffered vs applied
// ops plus the instantaneous backlog depth — the signal that a write
// storm is outrunning the catch-up drain.
struct DeltaMetrics {
  util::Counter* buffered;
  util::Counter* applied;
  util::Gauge* backlog;

  static const DeltaMetrics& Get() {
    static const DeltaMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return DeltaMetrics{registry.GetCounter("index.delta.buffered"),
                          registry.GetCounter("index.delta.applied"),
                          registry.GetGauge("index.build.delta_backlog")};
    }();
    return metrics;
  }
};

// Global indexes over partitioned tables carry a partition pointer per
// entry (the reason they cost more space than local indexes).
constexpr size_t kGlobalPartitionPointerBytes = 8;

size_t EffectiveKeyWidth(const IndexDef& def, const HeapTable& table) {
  size_t width = def.KeyWidth(table.schema());
  if (def.kind == IndexKind::kGlobal && table.partitioned()) {
    width += kGlobalPartitionPointerBytes;
  }
  return width;
}

// Deterministic iteration order for the accessors: the backing map is an
// unordered_map, but snapshots serialize whatever order AllIndexes /
// IndexesOnTable return, so they sort by display name (key as tiebreak —
// display names can collide across index kinds) to keep checkpoint bytes
// stable across runs.
template <typename IndexPtr>
void SortByDisplayName(std::vector<IndexPtr>* indexes) {
  std::sort(indexes->begin(), indexes->end(),
            [](const IndexPtr& a, const IndexPtr& b) {
              const std::string an = a->def().DisplayName();
              const std::string bn = b->def().DisplayName();
              if (an != bn) return an < bn;
              return a->def().Key() < b->def().Key();
            });
}

// Batch size for draining the side delta; bounds how long delta_mu_ is
// held per swap and how much is applied between latch re-acquisitions.
constexpr size_t kDeltaDrainBatch = 1024;

}  // namespace

const char* IndexStateName(IndexState state) {
  switch (state) {
    case IndexState::kBuilding:
      return "building";
    case IndexState::kReady:
      return "ready";
    case IndexState::kDropping:
      return "dropping";
  }
  return "unknown";
}

BuiltIndex::BuiltIndex(IndexDef def, const HeapTable& table)
    : def_(std::move(def)), table_(&table) {
  column_ordinals_.reserve(def_.columns.size());
  for (const std::string& col : def_.columns) {
    column_ordinals_.push_back(table.schema().FindColumn(col));
  }
  const size_t capacity =
      LeafCapacityForWidth(EffectiveKeyWidth(def_, table));
  const size_t trees = (def_.kind == IndexKind::kLocal && table.partitioned())
                           ? table.num_partitions()
                           : 1;
  trees_.reserve(trees);
  for (size_t i = 0; i < trees; ++i) {
    trees_.push_back(std::make_unique<BTree>(capacity, capacity));
  }
}

Row BuiltIndex::KeyFromRow(const Row& row) const {
  Row key;
  key.reserve(column_ordinals_.size());
  for (int ord : column_ordinals_) {
    key.push_back(ord >= 0 ? row[static_cast<size_t>(ord)] : Value::Null());
  }
  return key;
}

void BuiltIndex::TreeInsert(const Row& full_row, RowId rid) {
  const size_t shard =
      is_local() ? table_->PartitionOfRow(full_row) % trees_.size() : 0;
  trees_[shard]->Insert(KeyFromRow(full_row), rid);
}

bool BuiltIndex::TreeDelete(const Row& full_row, RowId rid) {
  const size_t shard =
      is_local() ? table_->PartitionOfRow(full_row) % trees_.size() : 0;
  return trees_[shard]->Delete(KeyFromRow(full_row), rid);
}

void BuiltIndex::InsertEntry(const Row& full_row, RowId rid) {
  if (state() == IndexState::kBuilding) {
    util::MutexLock lock(delta_mu_);
    delta_.push_back(DeltaOp{DeltaOp::Kind::kInsert, full_row, rid});
    DeltaMetrics::Get().buffered->Add();
    DeltaMetrics::Get().backlog->Set(static_cast<int64_t>(delta_.size()));
    return;
  }
  TreeInsert(full_row, rid);
}

bool BuiltIndex::DeleteEntry(const Row& full_row, RowId rid) {
  if (state() == IndexState::kBuilding) {
    util::MutexLock lock(delta_mu_);
    delta_.push_back(DeltaOp{DeltaOp::Kind::kDelete, full_row, rid});
    DeltaMetrics::Get().buffered->Add();
    DeltaMetrics::Get().backlog->Set(static_cast<int64_t>(delta_.size()));
    return true;  // the buffered op settles it at apply time
  }
  return TreeDelete(full_row, rid);
}

void BuiltIndex::BuildInsert(const Row& full_row, RowId rid) {
  TreeInsert(full_row, rid);
}

size_t BuiltIndex::ApplyDeltaBatch(size_t max_ops) {
  std::vector<DeltaOp> batch;
  {
    util::MutexLock lock(delta_mu_);
    const size_t take = std::min(max_ops, delta_.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(delta_.front()));
      delta_.pop_front();
    }
    DeltaMetrics::Get().applied->Add(take);
    DeltaMetrics::Get().backlog->Set(static_cast<int64_t>(delta_.size()));
  }
  // Applied outside delta_mu_: while kBuilding only the builder thread
  // touches the trees (writers buffer; readers never see the index).
  for (const DeltaOp& op : batch) {
    // Delete-then-insert makes delta application idempotent against the
    // snapshot scan: a row both scanned and buffered collapses to one
    // entry because RowIds are never reused, so (key,rid) pins it.
    TreeDelete(op.row, op.rid);
    if (op.kind == DeltaOp::Kind::kInsert) TreeInsert(op.row, op.rid);
  }
  return batch.size();
}

size_t BuiltIndex::delta_pending() const {
  util::MutexLock lock(delta_mu_);
  return delta_.size();
}

void BuiltIndex::Publish() {
  while (ApplyDeltaBatch(kDeltaDrainBatch) > 0) {
  }
  set_state(IndexState::kReady);
}

void BuiltIndex::Scan(const Value* partition_value, const Row* lo,
                      bool lo_inclusive, const Row* hi, bool hi_inclusive,
                      const std::function<bool(const Row&, RowId)>& fn,
                      size_t* pages_touched) const {
  if (is_local() && partition_value != nullptr) {
    const size_t shard =
        table_->PartitionOfValue(*partition_value) % trees_.size();
    trees_[shard]->Scan(lo, lo_inclusive, hi, hi_inclusive, fn,
                        pages_touched);
    return;
  }
  // Global index, or local without partition pruning: every tree.
  bool keep_going = true;
  for (const auto& tree : trees_) {
    if (!keep_going) break;
    tree->Scan(lo, lo_inclusive, hi, hi_inclusive,
               [&](const Row& key, RowId rid) {
                 keep_going = fn(key, rid);
                 return keep_going;
               },
               pages_touched);
  }
}

size_t BuiltIndex::num_entries() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree->num_entries();
  return total;
}

size_t BuiltIndex::height() const {
  size_t h = 1;
  for (const auto& tree : trees_) h = std::max(h, tree->height());
  return h;
}

size_t BuiltIndex::num_splits() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree->num_splits();
  return total;
}

size_t BuiltIndex::SizeBytes() const {
  size_t nodes = 0;
  for (const auto& tree : trees_) nodes += tree->num_nodes();
  return nodes * kPageSizeBytes;
}

IndexStatsView EstimateStatsView(const IndexDef& def,
                                 const HeapTable& table) {
  IndexStatsView view;
  view.def = def;
  view.hypothetical = true;
  const size_t width = EffectiveKeyWidth(def, table);
  view.num_entries = table.num_rows();
  if (def.kind == IndexKind::kLocal && table.partitioned()) {
    view.partitions = table.num_partitions();
    const size_t per_tree =
        std::max<size_t>(1, view.num_entries / view.partitions);
    view.height = EstimateIndexHeight(per_tree, width);
    view.size_bytes =
        view.partitions * EstimateIndexBytes(per_tree, width);
  } else {
    view.partitions = 1;
    view.height = EstimateIndexHeight(view.num_entries, width);
    view.size_bytes = EstimateIndexBytes(view.num_entries, width);
  }
  return view;
}

Status IndexManager::ValidateDef(const IndexDef& def) const {
  if (def.columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  const HeapTable* table = catalog_->GetTable(def.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + def.table);
  }
  for (const std::string& col : def.columns) {
    if (!table->schema().HasColumn(col)) {
      return Status::NotFound(
          StrFormat("no column %s in table %s", col.c_str(),
                    def.table.c_str()));
    }
  }
  return Status::Ok();
}

StatusOr<BuiltIndex*> IndexManager::BeginBuild(const IndexDef& def) {
  Status s = ValidateDef(def);
  if (!s.ok()) return s;
  const std::string key = def.Key();
  HeapTable* table = catalog_->GetTable(def.table);
  auto index = std::make_unique<BuiltIndex>(def, *table);
  BuiltIndex* raw = index.get();
  util::WriterLock lock(mu_);
  if (indexes_.count(key) > 0 || builds_.count(key) > 0) {
    return Status::AlreadyExists("index exists: " + key);
  }
  builds_.emplace(key, std::move(index));
  return raw;
}

Status IndexManager::FinishBuildDrain(const std::string& key) {
  BuiltIndex* build = nullptr;
  {
    util::ReaderLock lock(mu_);
    auto it = builds_.find(key);
    if (it == builds_.end()) {
      return Status::NotFound("no in-flight build: " + key);
    }
    build = it->second.get();
  }
  // Safe without mu_: only the build's driver thread publishes or aborts
  // it, and the caller's exclusive table latch stops new delta arrivals.
  while (build->ApplyDeltaBatch(kDeltaDrainBatch) > 0) {
  }
  return Status::Ok();
}

Status IndexManager::PublishBuild(const std::string& key) {
  util::WriterLock lock(mu_);
  auto it = builds_.find(key);
  if (it == builds_.end()) {
    return Status::NotFound("no in-flight build: " + key);
  }
  it->second->Publish();  // drains any residue, flips to kReady
  indexes_.emplace(key, std::move(it->second));
  builds_.erase(it);
  return Status::Ok();
}

Status IndexManager::AbortBuild(const std::string& key) {
  util::WriterLock lock(mu_);
  auto it = builds_.find(key);
  if (it == builds_.end()) {
    return Status::NotFound("no in-flight build: " + key);
  }
  it->second->set_state(IndexState::kDropping);
  builds_.erase(it);
  return Status::Ok();
}

Status IndexManager::DropIndex(const std::string& index_key_or_name) {
  util::WriterLock lock(mu_);
  auto it = indexes_.find(index_key_or_name);
  if (it == indexes_.end()) {
    // Fall back to display-name lookup.
    for (auto cand = indexes_.begin(); cand != indexes_.end(); ++cand) {
      if (cand->second->def().DisplayName() == index_key_or_name) {
        it = cand;
        break;
      }
    }
  }
  if (it == indexes_.end()) {
    return Status::NotFound("no such index: " + index_key_or_name);
  }
  it->second->set_state(IndexState::kDropping);
  indexes_.erase(it);
  return Status::Ok();
}

bool IndexManager::HasIndex(const IndexDef& def) const {
  util::ReaderLock lock(mu_);
  // In-flight builds count: a duplicate create must not start while the
  // same definition is mid-build.
  return indexes_.count(def.Key()) > 0 || builds_.count(def.Key()) > 0;
}

std::string IndexManager::TableOf(const std::string& index_key_or_name) const {
  util::ReaderLock lock(mu_);
  auto it = indexes_.find(index_key_or_name);
  if (it != indexes_.end()) return it->second->def().table;
  for (const auto& [_, index] : indexes_) {
    if (index->def().DisplayName() == index_key_or_name) {
      return index->def().table;
    }
  }
  return "";
}

std::vector<BuiltIndex*> IndexManager::IndexesOnTable(
    const std::string& table) {
  std::vector<BuiltIndex*> out;
  const std::string key = ToLower(table);
  util::ReaderLock lock(mu_);
  for (auto& [_, index] : indexes_) {
    if (index->def().table == key) out.push_back(index.get());
  }
  SortByDisplayName(&out);
  return out;
}

std::vector<const BuiltIndex*> IndexManager::IndexesOnTable(
    const std::string& table) const {
  std::vector<const BuiltIndex*> out;
  const std::string key = ToLower(table);
  util::ReaderLock lock(mu_);
  for (const auto& [_, index] : indexes_) {
    if (index->def().table == key) out.push_back(index.get());
  }
  SortByDisplayName(&out);
  return out;
}

std::vector<BuiltIndex*> IndexManager::AllIndexes() {
  util::ReaderLock lock(mu_);
  std::vector<BuiltIndex*> out;
  out.reserve(indexes_.size());
  for (auto& [_, index] : indexes_) out.push_back(index.get());
  SortByDisplayName(&out);
  return out;
}

std::vector<const BuiltIndex*> IndexManager::AllIndexes() const {
  util::ReaderLock lock(mu_);
  std::vector<const BuiltIndex*> out;
  out.reserve(indexes_.size());
  for (const auto& [_, index] : indexes_) out.push_back(index.get());
  SortByDisplayName(&out);
  return out;
}

std::vector<BuiltIndex*> IndexManager::WriteVisibleOnTable(
    const std::string& table) {
  std::vector<BuiltIndex*> out;
  const std::string key = ToLower(table);
  util::ReaderLock lock(mu_);
  for (auto& [_, index] : indexes_) {
    if (index->def().table == key) out.push_back(index.get());
  }
  for (auto& [_, build] : builds_) {
    if (build->def().table == key) out.push_back(build.get());
  }
  SortByDisplayName(&out);
  return out;
}

std::vector<const BuiltIndex*> IndexManager::AllIndexesAnyState() const {
  std::vector<const BuiltIndex*> out;
  util::ReaderLock lock(mu_);
  out.reserve(indexes_.size() + builds_.size());
  for (const auto& [_, index] : indexes_) out.push_back(index.get());
  for (const auto& [_, build] : builds_) out.push_back(build.get());
  SortByDisplayName(&out);
  return out;
}

size_t IndexManager::num_indexes() const {
  util::ReaderLock lock(mu_);
  return indexes_.size();
}

size_t IndexManager::TotalIndexBytes() const {
  util::ReaderLock lock(mu_);
  size_t total = 0;
  for (const auto& [_, index] : indexes_) total += index->SizeBytes();
  return total;
}

Status IndexManager::AddHypothetical(const IndexDef& def) {
  Status s = ValidateDef(def);
  if (!s.ok()) return s;
  const HeapTable* table = catalog_->GetTable(def.table);
  const IndexStatsView view = EstimateStatsView(def, *table);
  HypotheticalIndex hypo;
  hypo.def = def;
  hypo.est_entries = view.num_entries;
  hypo.est_height = view.height;
  hypo.est_bytes = view.size_bytes;
  util::WriterLock lock(mu_);
  hypothetical_.push_back(std::move(hypo));
  return Status::Ok();
}

void IndexManager::ClearHypothetical() {
  util::WriterLock lock(mu_);
  hypothetical_.clear();
}

std::vector<HypotheticalIndex> IndexManager::hypothetical() const {
  util::ReaderLock lock(mu_);
  return hypothetical_;
}

std::vector<IndexStatsView> IndexManager::StatsOnTable(
    const std::string& table) const {
  std::vector<IndexStatsView> out;
  const std::string key = ToLower(table);
  const HeapTable* t = catalog_->GetTable(table);
  util::ReaderLock lock(mu_);
  for (const auto& [_, index] : indexes_) {
    if (index->def().table != key) continue;
    IndexStatsView view;
    view.def = index->def();
    view.num_entries = index->num_entries();
    view.height = index->height();
    view.size_bytes = index->SizeBytes();
    view.partitions = index->num_trees();
    view.hypothetical = false;
    out.push_back(std::move(view));
  }
  for (const HypotheticalIndex& hypo : hypothetical_) {
    if (hypo.def.table != key) continue;
    IndexStatsView view;
    view.def = hypo.def;
    view.num_entries = hypo.est_entries;
    view.height = hypo.est_height;
    view.size_bytes = hypo.est_bytes;
    view.partitions =
        (hypo.def.kind == IndexKind::kLocal && t != nullptr &&
         t->partitioned())
            ? t->num_partitions()
            : 1;
    view.hypothetical = true;
    out.push_back(std::move(view));
  }
  return out;
}

}  // namespace autoindex
