#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/btree.h"
#include "index/index_def.h"
#include "storage/catalog.h"
#include "util/mutex.h"
#include "util/status.h"

namespace autoindex {

// Lifecycle state of a built index (DESIGN.md §10).
//
//   kBuilding → kReady → kDropping
//
// kReady indexes are the only ones the planner sees and the only ones a
// checkpoint serializes. A kBuilding index is being populated online: the
// builder scans the heap under a *shared* table latch while concurrent
// writer maintenance lands in a side-delta buffer instead of the trees.
// kDropping marks an index in the instant before it is unlinked, so a
// stale borrowed pointer can be diagnosed by validators.
enum class IndexState { kBuilding, kReady, kDropping };

const char* IndexStateName(IndexState state);

// A materialized secondary index: definition + one B+Tree (global) or one
// tree per table partition (local), plus runtime usage counters that feed
// the index-diagnosis module.
class BuiltIndex {
 public:
  // `table` supplies the schema and (for local indexes) the partitioning.
  // Every index starts kBuilding: the online build (IndexManager::
  // BeginBuild) is the only constructor caller, and publishing flips it.
  BuiltIndex(IndexDef def, const HeapTable& table);

  const IndexDef& def() const { return def_; }
  bool is_local() const { return trees_.size() > 1; }
  size_t num_trees() const { return trees_.size(); }

  // The single tree of a global/unpartitioned index (tests, stats).
  BTree& tree() { return *trees_[0]; }
  const BTree& tree() const { return *trees_[0]; }
  BTree& tree_at(size_t i) { return *trees_[i]; }
  const BTree& tree_at(size_t i) const { return *trees_[i]; }

  // Extracts this index's key from a full table row.
  Row KeyFromRow(const Row& row) const;

  // Entry maintenance, routed to the owning partition's tree. While the
  // index is kBuilding these buffer the operation into the side delta
  // instead (the caller holds the table's exclusive latch either way);
  // DeleteEntry then reports true because the delta will settle it.
  void InsertEntry(const Row& full_row, RowId rid) EXCLUDES(delta_mu_);
  bool DeleteEntry(const Row& full_row, RowId rid) EXCLUDES(delta_mu_);

  // --- Lifecycle ---
  IndexState state() const { return state_.load(std::memory_order_acquire); }
  bool ready() const { return state() == IndexState::kReady; }
  void set_state(IndexState s) {
    state_.store(s, std::memory_order_release);
  }

  // --- Online-build support (only meaningful while kBuilding) ---
  // Direct tree insert used by the build's snapshot scan; bypasses the
  // delta buffer. Only the builder thread calls this.
  void BuildInsert(const Row& full_row, RowId rid);
  // Pops up to `max_ops` buffered delta operations and applies them to
  // the trees. Inserts apply delete-then-insert: RowIds are never reused,
  // so (key,rid) pins the entry and re-application of a row the snapshot
  // scan already saw stays single-entry. Returns the ops applied.
  size_t ApplyDeltaBatch(size_t max_ops) EXCLUDES(delta_mu_);
  size_t delta_pending() const EXCLUDES(delta_mu_);
  // Drains the remaining delta and flips the state to kReady. The caller
  // must hold the table's exclusive latch so no new delta ops can arrive.
  void Publish() EXCLUDES(delta_mu_);

  // Scans the index. For a local index, `partition_value` (the bound value
  // of the table's partition column, when the query pins it) restricts the
  // scan to one partition tree; null scans every tree. Bounds as in
  // BTree::Scan. Pages touched accumulate into *pages_touched.
  void Scan(const Value* partition_value, const Row* lo, bool lo_inclusive,
            const Row* hi, bool hi_inclusive,
            const std::function<bool(const Row&, RowId)>& fn,
            size_t* pages_touched = nullptr) const;

  size_t num_entries() const;
  // Height of the (tallest) tree — H in the maintenance-cost formula.
  size_t height() const;
  size_t num_splits() const;
  size_t SizeBytes() const;

  // Planner usage accounting (Sec. III "rarely-used indexes"). Atomic:
  // bumped by planner threads under a shared latch, read/reset by the
  // tuning thread.
  void RecordUse() { uses_.fetch_add(1, std::memory_order_relaxed); }
  size_t uses() const { return uses_.load(std::memory_order_relaxed); }
  void ResetUses() { uses_.store(0, std::memory_order_relaxed); }

 private:
  // One buffered writer operation against a kBuilding index. The full row
  // is kept so partition routing can be recomputed at apply time.
  struct DeltaOp {
    enum class Kind { kInsert, kDelete };
    Kind kind;
    Row row;
    RowId rid;
  };

  // Shard-routed tree mutation (the pre-lifecycle InsertEntry/DeleteEntry
  // bodies).
  void TreeInsert(const Row& full_row, RowId rid);
  bool TreeDelete(const Row& full_row, RowId rid);

  IndexDef def_;
  const HeapTable* table_;
  std::vector<int> column_ordinals_;
  std::vector<std::unique_ptr<BTree>> trees_;
  std::atomic<IndexState> state_{IndexState::kBuilding};
  std::atomic<size_t> uses_{0};
  mutable util::Mutex delta_mu_;
  std::deque<DeltaOp> delta_ GUARDED_BY(delta_mu_);
};

// A what-if index (Sec. V C2.1): never built, its statistics are estimated
// from the table so the planner/cost model can price plans as if it
// existed. This substitutes for openGauss's hypopg extension.
struct HypotheticalIndex {
  IndexDef def;
  size_t est_entries = 0;
  size_t est_height = 1;
  size_t est_bytes = kPageSizeBytes;
};

// Uniform statistics view over built and hypothetical indexes; everything
// the cost model needs (N, H, pages — Sec. V-A). For local indexes,
// `height` is the per-partition tree height and `partitions` the number of
// trees an unpruned lookup must probe.
struct IndexStatsView {
  IndexDef def;
  size_t num_entries = 0;
  size_t height = 1;
  size_t size_bytes = kPageSizeBytes;
  size_t partitions = 1;
  bool hypothetical = false;
};

// Fills the estimated entry count / height / size of `def` over `table`
// (shared by hypothetical registration and what-if configs).
IndexStatsView EstimateStatsView(const IndexDef& def, const HeapTable& table);

// Owns every secondary index of a database. Writers keep entries in sync
// through WriteVisibleOnTable + BuiltIndex::InsertEntry/DeleteEntry (the
// executor's INSERT/UPDATE/DELETE and Database::BulkInsert). Also hosts
// the hypothetical-index registry.
//
// Thread safety: the index *map* is guarded by an internal shared_mutex
// (concurrent lookups vs index build/drop). Writer maintenance of an
// index's *entries* runs under the owning table's exclusive latch, same as
// the heap rows they shadow; only the builder touches a kBuilding index's
// trees.
class IndexManager {
 public:
  explicit IndexManager(Catalog* catalog) : catalog_(catalog) {}

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  Status DropIndex(const std::string& index_key_or_name) EXCLUDES(mu_);
  bool HasIndex(const IndexDef& def) const EXCLUDES(mu_);

  // --- Online build lifecycle (driven by Database::CreateIndex) ---
  // Registers an empty kBuilding index and returns a borrowed pointer.
  // Fails on duplicates (same column list, whether ready or in-flight) or
  // unknown table/columns, before any heap scan. From this moment writer
  // maintenance reaches it (via WriteVisibleOnTable) and buffers into its
  // side delta; the planner does not see it until PublishBuild. Caller
  // holds the table's exclusive latch for the registration instant.
  StatusOr<BuiltIndex*> BeginBuild(const IndexDef& def) EXCLUDES(mu_);
  // Drains the build's remaining delta into its trees. The caller holds
  // the table's exclusive latch, so the delta cannot grow concurrently.
  Status FinishBuildDrain(const std::string& key) EXCLUDES(mu_);
  // Flips the build to kReady and moves it into the planner-visible map.
  Status PublishBuild(const std::string& key) EXCLUDES(mu_);
  // Abandons an in-flight build, discarding its trees and delta.
  Status AbortBuild(const std::string& key) EXCLUDES(mu_);

  // Table owning the index named by key or display name; empty string if
  // the index is unknown. Used to pick the exclusive latch before a drop.
  std::string TableOf(const std::string& index_key_or_name) const
      EXCLUDES(mu_);

  // All *ready* indexes on one table (borrowed pointers). Read-path
  // accessors deliberately exclude in-flight builds: the planner, the
  // cost model, diagnosis, and checkpoints must never observe kBuilding.
  std::vector<BuiltIndex*> IndexesOnTable(const std::string& table)
      EXCLUDES(mu_);
  std::vector<const BuiltIndex*> IndexesOnTable(const std::string& table) const
      EXCLUDES(mu_);
  std::vector<BuiltIndex*> AllIndexes() EXCLUDES(mu_);
  std::vector<const BuiltIndex*> AllIndexes() const EXCLUDES(mu_);
  size_t num_indexes() const EXCLUDES(mu_);

  // Ready + building indexes on a table: everything the write path must
  // maintain so an in-flight build misses no mutation.
  std::vector<BuiltIndex*> WriteVisibleOnTable(const std::string& table)
      EXCLUDES(mu_);
  // Every index in any state (shell \indexes, validators).
  std::vector<const BuiltIndex*> AllIndexesAnyState() const EXCLUDES(mu_);

  // Total bytes of all built indexes.
  size_t TotalIndexBytes() const EXCLUDES(mu_);

  // --- Hypothetical indexes ---
  Status AddHypothetical(const IndexDef& def) EXCLUDES(mu_);
  void ClearHypothetical() EXCLUDES(mu_);
  // Snapshot by value: the registry may be swapped by a concurrent
  // what-if round.
  std::vector<HypotheticalIndex> hypothetical() const EXCLUDES(mu_);

  // Stats views of every index (built + hypothetical) on a table; this is
  // what the what-if planner enumerates.
  std::vector<IndexStatsView> StatsOnTable(const std::string& table) const
      EXCLUDES(mu_);

 private:
  Status ValidateDef(const IndexDef& def) const;

  Catalog* catalog_;
  mutable util::SharedMutex mu_;
  // Ready (planner-visible) indexes, keyed by IndexDef::Key().
  std::unordered_map<std::string, std::unique_ptr<BuiltIndex>> indexes_
      GUARDED_BY(mu_);
  // In-flight online builds (state kBuilding), same keying. Disjoint from
  // indexes_; PublishBuild moves an entry across.
  std::unordered_map<std::string, std::unique_ptr<BuiltIndex>> builds_
      GUARDED_BY(mu_);
  std::vector<HypotheticalIndex> hypothetical_ GUARDED_BY(mu_);
};

}  // namespace autoindex
