#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "engine/operators/lowering.h"
#include "engine/operators/operator.h"
#include "engine/planner.h"
#include "index/index_manager.h"
#include "sql/statement.h"
#include "stats/stats_manager.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace autoindex {

// The outcome of executing one statement: result rows (SELECT only) plus
// the raw execution counters the cost model prices.
struct ExecResult {
  std::vector<Row> rows;
  ExecStats stats;
  // The plan's chosen indexes (display names), deduplicated, in plan
  // order, for diagnostics.
  std::vector<std::string> indexes_used;
  // Snapshot of the executed operator tree with per-operator counters
  // (null for INSERT, which has no read pipeline). EXPLAIN ANALYZE
  // renders this; the plan validator cross-checks it against `stats`.
  // Shared with the executor's last_plan().
  std::shared_ptr<const PlanNodeSnapshot> plan;
  // Per-access-path (estimated, observed) pairs collected from the scan
  // operators — the feedback the benefit estimator consumes. The statement
  // path hands it to Database's feedback hook.
  std::vector<AccessPathFeedback> feedback;
};

// Executes statements by lowering the planner's output into a Volcano-style
// physical operator tree (src/engine/operators/) and pulling it to
// exhaustion. Statement-level ExecStats is derived by summing the
// per-operator counters, so the two accountings cannot drift apart.
class Executor {
 public:
  Executor(Catalog* catalog, IndexManager* indexes, StatsManager* stats)
      : catalog_(catalog),
        indexes_(indexes),
        stats_(stats),
        planner_(catalog, stats) {}

  StatusOr<ExecResult> Execute(const Statement& stmt);

  // Plan and lower a SELECT, or the row lookup of an UPDATE/DELETE on
  // `table`, into the unopened tree Execute runs and EXPLAIN renders,
  // against `config` (null: the built indexes, as Execute plans).
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanSelect(
      const SelectStatement& stmt,
      const std::vector<IndexStatsView>* config) const;
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanLookup(
      const std::string& table, const Expr* where,
      const std::vector<IndexStatsView>* config) const;

  const Planner& planner() const { return planner_; }

  // Whether plan snapshots carry each operator's detail text. Off by
  // default: only EXPLAIN ANALYZE renders it.
  void set_plan_detail(bool on) { plan_detail_ = on; }

  // The last executed read pipeline and the statement-level stats it
  // summed into — what CheckLastPlan checks. Null until a
  // SELECT/UPDATE/DELETE runs (INSERT clears it).
  const PlanNodeSnapshot* last_plan() const { return last_plan_.get(); }
  const ExecStats& last_plan_stats() const { return last_plan_stats_; }

  // Test hook: lets check_test corrupt the retained snapshot to prove the
  // validator catches structural and accounting damage. Unshares it from
  // the ExecResult first.
  PlanNodeSnapshot* TestOnlyMutableLastPlan() {
    if (last_plan_ == nullptr) return nullptr;
    auto copy = std::make_shared<PlanNodeSnapshot>(*last_plan_);
    last_plan_ = copy;
    return copy.get();
  }

 private:
  StatusOr<ExecResult> ExecuteSelect(const SelectStatement& stmt);
  StatusOr<ExecResult> ExecuteInsert(const InsertStatement& stmt);
  StatusOr<ExecResult> ExecuteUpdate(const UpdateStatement& stmt);
  StatusOr<ExecResult> ExecuteDelete(const DeleteStatement& stmt);

  // Runs the row-location pipeline of a write statement's WHERE: fills the
  // read-side counters, plan snapshot, and feedback of *result and returns
  // the matched RowIds.
  StatusOr<std::vector<RowId>> LookupRows(const std::string& table,
                                          const Expr* where,
                                          ExecResult* result);

  // Current built-index stats for the tables (the real execution config).
  std::vector<IndexStatsView> BuiltConfig(
      const std::vector<TableRef>& tables) const;

  void FinishStatement(const ExecResult& result);

  Catalog* catalog_;
  IndexManager* indexes_;
  StatsManager* stats_;
  Planner planner_;
  bool plan_detail_ = false;
  std::shared_ptr<const PlanNodeSnapshot> last_plan_;
  ExecStats last_plan_stats_;
};

}  // namespace autoindex
