#pragma once

#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "engine/planner.h"
#include "index/index_manager.h"
#include "sql/statement.h"
#include "stats/stats_manager.h"

namespace autoindex {

// An index configuration a what-if call prices against: an arbitrary set
// of index definitions, independent of what is physically built. This is
// how AutoIndex prices both additions (hypothetical indexes, C2.1) and
// removals (configs that omit existing indexes).
class IndexConfig {
 public:
  IndexConfig() = default;
  explicit IndexConfig(std::vector<IndexDef> defs);

  // Materializes stats views for the defs using table statistics (entry
  // counts, estimated heights/sizes).
  std::vector<IndexStatsView> ToStatsViews(const Catalog& catalog) const;

  const std::vector<IndexDef>& defs() const { return defs_; }
  bool Contains(const IndexDef& def) const;
  void Add(IndexDef def);
  void Remove(const IndexDef& def);

  // Total estimated bytes of all indexes in the config.
  size_t TotalBytes(const Catalog& catalog) const;

 private:
  std::vector<IndexDef> defs_;
};

// Which indexes a statement's what-if cost can read: a superset, fixed by
// the statement's shape alone, of every def the planner can choose for it
// and every def its write maintenance charges. Dropping the other defs from
// a config leaves the statement's cost bit-identical, so a memo may key the
// cost by the defs this admits. A def on a table the statement names is
// readable
//   - by a SELECT, DELETE or UPDATE when its leading column appears anywhere
//     in the WHERE (the planner only uses an index through an equality or
//     range atom on that column; joins are WHERE atoms, and it never uses
//     an index for GROUP BY, ORDER BY or IN);
//   - by an UPDATE also when it holds an assigned column (maintenance);
//   - by an INSERT always (every index on the table is maintained).
// DELETE charges no index maintenance. Built once per template; a
// default-constructed one admits every def.
class IndexRelevance {
 public:
  IndexRelevance() = default;
  explicit IndexRelevance(const Statement& stmt);

  bool CanRead(const IndexDef& def) const;

 private:
  // Target tables as written and lowercased: the planner matches a SELECT's
  // tables verbatim, writes by lowercased name.
  std::vector<std::string> tables_;
  std::vector<std::string> where_columns_;
  std::vector<std::string> assigned_columns_;
  bool reads_all_on_table_ = false;
  bool reads_everything_ = true;
};

// Prices statements under arbitrary index configurations without executing
// them — the substrate equivalent of hypopg + EXPLAIN. The read side is the
// planner's price for the plan it picks: a SELECT's est_total_cost, an
// UPDATE/DELETE's write-lookup est_cost. Writes add the paper's maintenance
// formulas (Sec. V-A) per affected index.
class WhatIfCostModel {
 public:
  WhatIfCostModel(Catalog* catalog, StatsManager* stats)
      : catalog_(catalog), planner_(catalog, stats) {}

  // Estimated cost breakdown of one statement under `config`.
  CostBreakdown EstimateStatement(const Statement& stmt,
                                  const IndexConfig& config) const;

  // Convenience: total scalar cost.
  double EstimateStatementCost(const Statement& stmt,
                               const IndexConfig& config) const {
    return EstimateStatement(stmt, config).Total();
  }

 private:
  CostBreakdown EstimateWrite(const Statement& stmt,
                              const std::vector<IndexStatsView>& views) const;

  Catalog* catalog_;
  Planner planner_;
};

}  // namespace autoindex
