#pragma once

#include <string>

#include "engine/database.h"
#include "sql/statement.h"

namespace autoindex {

// EXPLAIN: plans and lowers a statement without executing it and renders
// the operator tree that would run, the one EXPLAIN ANALYZE renders after
// running it. A null config plans against the built indexes, as execution
// does; any IndexConfig (hypothetical indexes included) shows its what-if
// plan. UPDATE/DELETE show their lookup tree under the write; INSERT is
// one line. A statement that cannot be planned fails.
//
//   -> Project b  (est. 10.0 rows, cost 52.1)
//     -> Filter a = 5  (est. 10.0 rows, cost 52.1)
//       -> IndexScan on t via idx_t_a (eq prefix 1)  (est. 10.0 rows, ...)
//   estimated total cost: 52.1 (est. 10.0 result rows)
StatusOr<std::string> ExplainStatement(const Database& db,
                                       const Statement& stmt,
                                       const IndexConfig* config = nullptr);

// Parses and explains one SQL string.
StatusOr<std::string> ExplainSql(const Database& db, const std::string& sql);

// Renders an operator-tree snapshot from `depth` on: one line per
// operator with the planner's figures, its output rows and the price of
// its subtree, plus the measured counters for an `executed` tree.
//
//   -> Project a, b  (est. 10.0 rows, cost 12.4)  (actual: rows=10)
//     -> IndexScan on t via idx_t_a (eq prefix 1)  (est. 10.0 rows,
//        cost 12.4)  (actual: rows=10, heap_pages=3, index_pages=2, ...)
std::string RenderPlanSnapshot(const PlanNodeSnapshot& node, bool executed,
                               size_t depth = 0);

// EXPLAIN ANALYZE: actually executes the statement, then renders the
// per-operator tree with estimated vs. measured rows/costs plus a footer
// with the statement's priced cost. Mutating statements DO mutate the
// database, like the real thing.
StatusOr<std::string> ExplainAnalyzeStatement(Database& db,
                                              const Statement& stmt);

// Parses and EXPLAIN ANALYZEs one SQL string.
StatusOr<std::string> ExplainAnalyzeSql(Database& db, const std::string& sql);

}  // namespace autoindex
