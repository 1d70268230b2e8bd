#pragma once

#include <optional>
#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "index/index_manager.h"
#include "sql/statement.h"
#include "stats/stats_manager.h"

namespace autoindex {

// One atomic condition on a column of a specific table, extracted from the
// WHERE conjunction. `join_source` marks equality with a column of a table
// earlier in the join order (the value becomes known per outer tuple).
struct ColumnCondition {
  std::string column;
  enum Kind { kEq, kRangeLo, kRangeHi, kIn, kOther } kind = kOther;
  bool inclusive = true;            // for ranges
  Value literal;                    // for kEq/kRangeLo/kRangeHi
  std::vector<Value> in_values;     // for kIn
  std::optional<ColumnRef> join_source;  // equality with an earlier table
  const Expr* atom = nullptr;       // borrowed pointer into the statement
};

// The planner's choice for accessing one table.
struct AccessDecision {
  bool use_index = false;
  IndexDef index;           // valid when use_index
  size_t eq_prefix_len = 0; // leading index columns bound by equality
  bool has_range = false;   // range bound on the column after the prefix
  double est_rows = 0.0;    // rows surviving all table-local predicates
  double est_match_rows = 0.0;  // rows fetched via the index prefix
  double est_cost = 0.0;    // access-path cost (read side only)
  // The index path's per-probe page terms, valid when use_index:
  // descents × tree height (a local index without a bound partition column
  // descends every partition), leaf pages scanned, and heap pages fetched
  // (blended by the leading column's physical correlation).
  double descent_pages = 0.0;
  double leaf_pages = 0.0;
  double heap_fetch_pages = 0.0;
};

// Per-table information the planner derives for a SELECT.
struct TablePlan {
  TableRef ref;
  std::vector<ColumnCondition> conditions;  // all table-local conditions
  AccessDecision access;
  // PlanSelect's figures for the join pipeline through this level: the
  // rows it emits and the cumulative cost of levels 0..this one. Lowering
  // gives them to the level's operator.
  double est_level_rows = 0.0;
  double est_level_cost = 0.0;
};

// A left-deep plan over the FROM list (joined in `tables` order).
struct SelectPlan {
  std::vector<TablePlan> tables;
  // The plan's price, level by level as lowering runs it, plus sort and
  // aggregation; also the what-if cost of the SELECT.
  double est_total_cost = 0.0;
  double est_result_rows = 0.0;
};

// The sequential-scan access path over `table`: every page and row read,
// `est_rows` rows kept.
AccessDecision SeqScanAccess(const HeapTable& table, double est_rows);

// Builds access plans from statistics only — usable both for real
// execution (config = built indexes) and what-if estimation (config
// includes hypothetical indexes). Stateless apart from borrowed managers.
class Planner {
 public:
  Planner(Catalog* catalog, StatsManager* stats)
      : catalog_(catalog), stats_(stats) {}

  // Plans a SELECT against the given per-table index configurations.
  // `config` maps each table (by real name) to the indexes assumed
  // available. Join order: tables are greedily ordered by estimated
  // filtered cardinality, except that tables only reachable by join
  // predicates follow their producers.
  StatusOr<SelectPlan> PlanSelect(
      const SelectStatement& stmt,
      const std::vector<IndexStatsView>& config) const;

  // Plans the row-location part of UPDATE/DELETE (single table).
  StatusOr<TablePlan> PlanWriteLookup(
      const std::string& table, const Expr* where,
      const std::vector<IndexStatsView>& config) const;

  // Chooses the cheapest access path for one table given its conditions.
  AccessDecision ChooseAccessPath(
      const std::string& table,
      const std::vector<ColumnCondition>& conditions,
      const std::vector<IndexStatsView>& table_indexes) const;

  // Extracts table-local conditions for `alias` out of a WHERE conjunction.
  // Atoms whose columns belong to other tables are skipped; equality atoms
  // with a column of a table in `earlier` (matched by qualifier, or by
  // probing schemas for unqualified names) become join conditions.
  std::vector<ColumnCondition> ExtractConditions(
      const Expr* where, const std::string& table, const std::string& alias,
      const std::vector<TableRef>& earlier) const;

 private:
  double EstimateConditionSelectivity(const std::string& table,
                                      const ColumnCondition& cond) const;

  // Expected heap pages fetched for `match_rows` rows located via an index
  // whose leading column is `column`. Interpolates between the clustered
  // (contiguous pages) and random (one page per row) extremes with the
  // column's physical correlation squared — the PostgreSQL approach.
  double EstimateHeapFetchPages(const std::string& table,
                                const std::string& column,
                                double match_rows) const;

  Catalog* catalog_;
  StatsManager* stats_;
};

// Resolves which FROM entry a column reference belongs to: a qualified
// name to the first entry whose alias or table matches it, an unqualified
// one to the first entry whose schema has the column. Returns -1 when
// nothing matches. The planner and candidate generation share this rule.
int ResolveColumnTable(const ColumnRef& col,
                       const std::vector<TableRef>& from,
                       const Catalog& catalog);

}  // namespace autoindex
