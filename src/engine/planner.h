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
  // The join source also names a column of this table. The binding rule
  // (ColumnBinder) resolves it to the table itself, so an index key cannot
  // read it: no index path is keyed on this condition.
  bool source_shadowed = false;
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
  // Rows passing the table's literal conditions alone: what a sequential
  // scan of the table emits as a join's inner side.
  double est_local_rows = 0.0;
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
  // available. Join order is chosen by price: a greedy order (place next
  // the smallest filtered table a join equality connects to the placed
  // ones) is built from each FROM table as the first placement, each is
  // priced level by level as lowering runs it, and the lowest
  // est_total_cost wins. On a tie the greedy that starts at the smallest
  // filtered table is kept; a one-table SELECT plans once. A statement
  // whose answer depends on the join order (a column name several FROM
  // tables have, or a `*` projection) keeps that greedy order alone, so
  // the index configuration never changes its answer.
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
  // ChooseAccessPath with each condition's selectivity given:
  // selectivity[k] is conditions[k]'s.
  AccessDecision ChooseAccess(
      const std::string& table,
      const std::vector<ColumnCondition>& conditions,
      const std::vector<double>& selectivity,
      const std::vector<IndexStatsView>& table_indexes) const;

  // Prices the join `levels` in order, as LowerSelect runs them: returns
  // the plan's est_total_cost and sets *result_rows. With `record`, each
  // level's access becomes the path that runs and its figures are set.
  double PriceLevels(const SelectStatement& stmt,
                     const std::vector<TablePlan*>& levels, bool record,
                     double* result_rows) const;

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
