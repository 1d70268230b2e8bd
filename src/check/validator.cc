#include "check/validator.h"

#include "engine/database.h"
#include "storage/latch_manager.h"
#include "util/string_util.h"

namespace autoindex {

std::string CheckReport::ToString() const {
  if (ok()) {
    return StrCat("OK (", structures_checked_, " structures checked)");
  }
  std::string out = StrCat(issues_.size(), " invariant violation",
                           issues_.size() == 1 ? "" : "s", ":");
  for (const CheckIssue& issue : issues_) {
    out += StrCat("\n  [", issue.validator, "] ", issue.detail);
  }
  return out;
}

namespace {

// The one body behind both CheckAll overloads; `mcts` is null when the
// caller has no selector.
CheckReport CheckDatabase(const Database& db, const MctsIndexSelector* mcts) {
  // Freeze the data under audit: shared latches on every table, taken as
  // ONE sorted acquisition so this composes with the global lock order.
  // Callers must not hold statement latches (ExecuteOn and the DDL paths
  // release theirs before running the invariant hook).
  LatchManager::Guard guard =
      db.latches().AcquireShared(db.catalog().TableNames());
  const Catalog& catalog = db.catalog();
  const IndexManager& indexes = db.index_manager();
  const Executor& executor = db.executor();
  CheckReport report;
  CheckBTrees(indexes, &report);
  CheckHeapTables(catalog, &report);
  CheckCatalog(catalog, indexes, &report);
  if (mcts != nullptr) CheckPolicyTree(*mcts, &report);
  if (executor.last_plan() != nullptr) {
    CheckLastPlan(*executor.last_plan(), executor.last_plan_stats(), &report);
  }
  CheckLatches(db.latches(), &report);
  CheckLifecycle(catalog, indexes, &report);
  CheckMetrics(util::MetricsRegistry::Default(), &report);
  CheckTraces(obs::Tracer::Default().TakeSnapshot(), &report);
  return report;
}

}  // namespace

CheckReport CheckAll(const Database& db) { return CheckDatabase(db, nullptr); }

CheckReport CheckAll(const Database& db, const MctsIndexSelector& mcts) {
  return CheckDatabase(db, &mcts);
}

void InstallDebugChecks(Database* db, bool install) {
  if (!install) {
    db->set_invariant_hook(nullptr);
    return;
  }
  db->set_invariant_hook([](const Database& d) -> Status {
    const CheckReport report = CheckAll(d);
    if (report.ok()) return Status::Ok();
    return Status::Internal(StrCat("invariant check failed after mutation: ",
                                   report.ToString()));
  });
}

}  // namespace autoindex
