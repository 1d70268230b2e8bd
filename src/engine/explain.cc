#include "engine/explain.h"

#include "engine/planner.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace autoindex {
StatusOr<std::string> ExplainStatement(const Database& db,
                                       const Statement& stmt,
                                       const IndexConfig* config) {
  const Executor& executor = db.executor();
  const std::vector<IndexStatsView> views =
      config == nullptr ? std::vector<IndexStatsView>()
                        : config->ToStatsViews(db.catalog());
  const std::vector<IndexStatsView>* planned =
      config == nullptr ? nullptr : &views;
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      StatusOr<std::unique_ptr<PhysicalPlan>> plan =
          executor.PlanSelect(*stmt.select, planned);
      if (!plan.ok()) return plan.status();
      const PhysicalPlan& pp = **plan;
      return RenderPlanSnapshot(pp.root->Snapshot(true), false) +
             StrFormat("estimated total cost: %.1f (est. %.1f result rows)\n",
                       pp.logical.est_total_cost, pp.logical.est_result_rows);
    }
    case StatementKind::kUpdate:
    case StatementKind::kDelete: {
      const bool update = stmt.kind == StatementKind::kUpdate;
      StatusOr<std::unique_ptr<PhysicalPlan>> plan = executor.PlanLookup(
          update ? stmt.update->table : stmt.del->table, stmt.where(),
          planned);
      if (!plan.ok()) return plan.status();
      return (update ? "-> update rows\n" : "-> delete rows\n") +
             RenderPlanSnapshot((*plan)->root->Snapshot(true), false, 1);
    }
    case StatementKind::kInsert:
      break;
  }
  return StrFormat("-> insert into %s (%zu rows)\n",
                   stmt.insert->table.c_str(), stmt.insert->rows.size());
}

StatusOr<std::string> ExplainSql(const Database& db,
                                 const std::string& sql) {
  StatusOr<Statement> stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return ExplainStatement(db, *stmt);
}

std::string RenderPlanSnapshot(const PlanNodeSnapshot& node, bool executed,
                               size_t depth) {
  std::string out(2 * depth, ' ');
  out += StrFormat("-> %s %s  (est. %.1f rows, cost %.1f)", node.op.c_str(),
                   node.detail.c_str(), node.est_rows, node.est_cost);
  if (executed) {
    const OperatorStats& a = node.actual;
    out += StrFormat("  (actual: rows=%lld",
                     static_cast<long long>(a.rows_out));
    const struct {
      const char* label;
      int64_t value;
    } counters[] = {
        {"heap_pages", a.heap_pages_read},
        {"index_pages", a.index_pages_read},
        {"tuples", a.tuples_examined},
        {"index_tuples", a.index_tuples_read},
        {"sort_rows", a.sort_rows},
        {"comparisons", a.comparisons},
    };
    for (const auto& c : counters) {
      if (c.value != 0) {
        out +=
            StrFormat(", %s=%lld", c.label, static_cast<long long>(c.value));
      }
    }
    out += ")";
  }
  out += "\n";
  for (const PlanNodeSnapshot& child : node.children) {
    out += RenderPlanSnapshot(child, executed, depth + 1);
  }
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
    out += RenderPlanSnapshot(*result->plan, true);
  } else {
    // INSERT has no read pipeline; show its one line instead.
    StatusOr<std::string> shape = ExplainStatement(db, stmt);
    if (!shape.ok()) return shape.status();
    out += *shape;
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
