#include "engine/explain.h"

#include "engine/planner.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

std::string DescribeAccess(const TablePlan& tp, bool first_level) {
  std::string out;
  if (tp.access.use_index) {
    out += StrFormat("-> index scan on %s via %s\n", tp.ref.alias.c_str(),
                     tp.access.index.DisplayName().c_str());
    std::vector<std::string> bound;
    for (size_t k = 0; k < tp.access.eq_prefix_len; ++k) {
      bound.push_back(tp.access.index.columns[k] + " = ?");
    }
    if (tp.access.has_range &&
        tp.access.eq_prefix_len < tp.access.index.columns.size()) {
      bound.push_back(tp.access.index.columns[tp.access.eq_prefix_len] +
                      " range");
    }
    out += StrFormat("     prefix: %s  (est. %.1f rows, cost %.1f)\n",
                     Join(bound, ", ").c_str(), tp.access.est_rows,
                     tp.access.est_cost);
  } else {
    bool has_join = false;
    for (const ColumnCondition& c : tp.conditions) {
      if (c.join_source.has_value()) has_join = true;
    }
    if (has_join && !first_level) {
      std::vector<std::string> keys;
      for (const ColumnCondition& c : tp.conditions) {
        if (c.join_source.has_value()) {
          keys.push_back(c.column + " = " + c.join_source->ToString());
        }
      }
      out += StrFormat("-> hash join to %s on %s  (est. %.1f rows)\n",
                       tp.ref.alias.c_str(), Join(keys, ", ").c_str(),
                       tp.access.est_rows);
    } else {
      out += StrFormat("-> seq scan on %s  (est. %.1f rows, cost %.1f)\n",
                       tp.ref.alias.c_str(), tp.access.est_rows,
                       tp.access.est_cost);
    }
  }
  return out;
}

}  // namespace

std::string ExplainStatement(const Database& db, const Statement& stmt,
                             const IndexConfig& config) {
  const Planner& planner = db.executor().planner();
  const std::vector<IndexStatsView> views =
      config.ToStatsViews(db.catalog());
  std::string out;
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      StatusOr<SelectPlan> plan = planner.PlanSelect(*stmt.select, views);
      if (!plan.ok()) return "error: " + plan.status().ToString();
      for (size_t i = 0; i < plan->tables.size(); ++i) {
        out += DescribeAccess(plan->tables[i], i == 0);
      }
      if (!stmt.select->group_by.empty()) out += "-> hash aggregate\n";
      if (!stmt.select->order_by.empty()) out += "-> sort\n";
      out += StrFormat("estimated total cost: %.1f (est. %.1f result rows)\n",
                       plan->est_total_cost, plan->est_result_rows);
      return out;
    }
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      const std::string table = stmt.kind == StatementKind::kUpdate
                                    ? stmt.update->table
                                    : stmt.del->table;
      StatusOr<TablePlan> tp =
          planner.PlanWriteLookup(table, stmt.where(), views);
      if (!tp.ok()) return "error: " + tp.status().ToString();
      out += DescribeAccess(*tp, true);
      out += stmt.kind == StatementKind::kUpdate ? "-> update rows\n"
                                                 : "-> delete rows\n";
      return out;
    }
    case StatementKind::kInsert:
      out += StrFormat("-> insert into %s (%zu rows)\n",
                       stmt.insert->table.c_str(), stmt.insert->rows.size());
      return out;
  }
  return out;
}

std::string ExplainStatement(const Database& db, const Statement& stmt) {
  return ExplainStatement(db, stmt, db.CurrentConfig());
}

StatusOr<std::string> ExplainSql(const Database& db,
                                 const std::string& sql) {
  StatusOr<Statement> stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return ExplainStatement(db, *stmt);
}

namespace {

void RenderSnapshotNode(const PlanNodeSnapshot& n, size_t depth,
                        std::string* out) {
  out->append(2 * depth, ' ');
  *out += StrFormat("-> %s %s  (est. %.1f rows, cost %.1f)", n.op.c_str(),
                    n.detail.c_str(), n.est_rows, n.est_cost);
  *out += StrFormat("  (actual: rows=%lld",
                    static_cast<long long>(n.actual.rows_out));
  const struct {
    const char* label;
    int64_t value;
  } counters[] = {
      {"heap_pages", n.actual.heap_pages_read},
      {"index_pages", n.actual.index_pages_read},
      {"tuples", n.actual.tuples_examined},
      {"index_tuples", n.actual.index_tuples_read},
      {"sort_rows", n.actual.sort_rows},
      {"comparisons", n.actual.comparisons},
  };
  for (const auto& c : counters) {
    if (c.value != 0) {
      *out += StrFormat(", %s=%lld", c.label,
                        static_cast<long long>(c.value));
    }
  }
  *out += ")\n";
  for (const PlanNodeSnapshot& child : n.children) {
    RenderSnapshotNode(child, depth + 1, out);
  }
}

}  // namespace

std::string RenderPlanSnapshot(const PlanNodeSnapshot& node) {
  std::string out;
  RenderSnapshotNode(node, 0, &out);
  return out;
}

StatusOr<std::string> ExplainAnalyzeStatement(Database& db,
                                              const Statement& stmt) {
  // Operator detail text is built only for EXPLAIN, not per statement.
  db.executor().set_plan_detail(true);
  StatusOr<ExecResult> result = db.Execute(stmt);
  db.executor().set_plan_detail(false);
  if (!result.ok()) return result.status();
  std::string out;
  if (result->plan != nullptr) {
    out += RenderPlanSnapshot(*result->plan);
  } else {
    // INSERT has no read pipeline; show the logical shape instead.
    out += ExplainStatement(db, stmt);
  }
  const CostBreakdown cost = result->stats.ToCost();
  out += StrFormat("measured cost: %.1f (%zu rows)\n", cost.Total(),
                   result->stats.rows_returned);
  if (!result->feedback.empty()) {
    out += "feedback:\n";
    for (const AccessPathFeedback& fb : result->feedback) {
      out += StrFormat(
          "  %s via %s: est %.1f rows / %.1f cost, actual %.1f rows / %.1f "
          "cost\n",
          fb.table.c_str(),
          fb.index.empty() ? "seq scan" : fb.index.c_str(), fb.est_rows,
          fb.est_cost, fb.actual_rows, fb.actual_cost);
    }
  }
  return out;
}

StatusOr<std::string> ExplainAnalyzeSql(Database& db,
                                        const std::string& sql) {
  StatusOr<Statement> stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return ExplainAnalyzeStatement(db, *stmt);
}

}  // namespace autoindex
