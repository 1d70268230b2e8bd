#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/expr.h"
#include "stats/column_stats.h"
#include "storage/catalog.h"
#include "storage/latch_manager.h"
#include "util/mutex.h"

namespace autoindex {

// Caches per-table, per-column statistics and estimates predicate
// selectivities. Stats go stale as tables mutate; callers re-ANALYZE via
// Invalidate()/Analyze() (Database::Analyze, which every management round
// of AutoIndexManager starts with). Analyze skips a table whose rows have
// not changed since its stats were built (same HeapTable::id(), same
// HeapTable::modifications()); registry counters stats.analyze.tables_built
// and stats.analyze.tables_skipped count both outcomes.
//
// Thread safety: the cache is mutex-guarded and hands out shared_ptr
// snapshots, so a concurrent re-ANALYZE can swap a table's stats without
// invalidating pointers a planner thread is still reading. When a latch
// manager is attached (set_latch_manager), the ANALYZE table scan runs
// under a shared table latch — a no-op if the calling statement already
// latched the table.
class StatsManager {
 public:
  explicit StatsManager(Catalog* catalog) : catalog_(catalog) {}

  StatsManager(const StatsManager&) = delete;
  StatsManager& operator=(const StatsManager&) = delete;

  // Attaches the database's latch manager; scans latch tables from then
  // on. Must be called before concurrent use (Database does this at
  // construction).
  void set_latch_manager(LatchManager* latches) { latches_ = latches; }

  // (Re)builds statistics for one table, unless it is unchanged since its
  // cached statistics were built.
  void Analyze(const std::string& table) EXCLUDES(mu_);
  // (Re)builds statistics for every table in the catalog.
  void AnalyzeAll() EXCLUDES(mu_);
  void Invalidate(const std::string& table) EXCLUDES(mu_);

  // Stats for a column; builds them lazily on first access. Returns
  // nullptr when the table/column does not exist. The snapshot stays
  // valid (immutable) even if the table is re-analyzed concurrently.
  std::shared_ptr<const ColumnStats> GetColumnStats(
      const std::string& table, const std::string& column) EXCLUDES(mu_);

  // Estimated fraction of `table` rows satisfying the boolean expression.
  // ANDs multiply (independence), ORs combine via inclusion-exclusion,
  // NOT complements. Predicates naming other tables are ignored (treated
  // as selectivity 1 for this table).
  double EstimateSelectivity(const Expr& expr, const std::string& table,
                             const std::string& alias = "");

  // Selectivity of a single atomic predicate against `table`.
  double AtomSelectivity(const Expr& atom, const std::string& table,
                         const std::string& alias = "");

  // Snapshot serialization (src/persist/): saves/restores the cached stats
  // verbatim (tables and columns in sorted order, so the bytes are
  // deterministic). Load replaces the whole cache.
  void Save(persist::Writer* w) const EXCLUDES(mu_);
  void Load(persist::Reader* r) EXCLUDES(mu_);

 private:
  Catalog* catalog_;
  LatchManager* latches_ = nullptr;
  mutable util::Mutex mu_;
  struct TableStats {
    // The HeapTable the stats were built from and its modification count
    // at that time; id 0 (never a table's) for stats loaded from a
    // snapshot, which the next Analyze rebuilds.
    uint64_t table_id = 0;
    uint64_t modifications = 0;
    // column -> immutable stats snapshot
    std::unordered_map<std::string, std::shared_ptr<const ColumnStats>>
        columns;
  };
  // table -> its statistics
  std::unordered_map<std::string, TableStats> cache_ GUARDED_BY(mu_);
};

}  // namespace autoindex
