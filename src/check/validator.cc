#include "check/validator.h"

#include "check/btree_validator.h"
#include "check/catalog_validator.h"
#include "check/heap_validator.h"
#include "check/latch_validator.h"
#include "check/lifecycle_validator.h"
#include "check/mcts_validator.h"
#include "check/metrics_validator.h"
#include "check/plan_validator.h"
#include "check/trace_validator.h"
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

void CheckReport::Merge(const CheckReport& other) {
  issues_.insert(issues_.end(), other.issues_.begin(), other.issues_.end());
  structures_checked_ += other.structures_checked_;
}

ValidatorRegistry& ValidatorRegistry::Default() {
  static ValidatorRegistry registry;
  static const bool populated = [] {
    registry.Register(std::make_unique<BTreeValidator>());
    registry.Register(std::make_unique<HeapTableValidator>());
    registry.Register(std::make_unique<CatalogConsistencyValidator>());
    registry.Register(std::make_unique<MctsPolicyTreeValidator>());
    registry.Register(std::make_unique<PhysicalPlanValidator>());
    registry.Register(std::make_unique<LatchValidator>());
    registry.Register(std::make_unique<LifecycleValidator>());
    registry.Register(std::make_unique<MetricsValidator>());
    registry.Register(std::make_unique<TraceValidator>());
    return true;
  }();
  (void)populated;
  return registry;
}

void ValidatorRegistry::Register(std::unique_ptr<Validator> validator) {
  validators_.push_back(std::move(validator));
}

CheckReport ValidatorRegistry::RunAll(const CheckContext& ctx) const {
  CheckReport report;
  for (const auto& validator : validators_) {
    validator->Validate(ctx, &report);
  }
  return report;
}

namespace {

void FillPlanContext(const Database& db, CheckContext* ctx) {
  const Executor& executor = db.executor();
  if (executor.last_plan() != nullptr) {
    ctx->last_plan = executor.last_plan();
    ctx->last_plan_stats = &executor.last_plan_stats();
  }
}

}  // namespace

CheckReport CheckAll(const Database& db) {
  // Freeze the data under audit: shared latches on every table, taken as
  // ONE sorted acquisition so this composes with the global lock order.
  // Callers must not hold statement latches (ExecuteOn and the DDL paths
  // release theirs before running the invariant hook).
  LatchManager::Guard guard =
      db.latches().AcquireShared(db.catalog().TableNames());
  CheckContext ctx;
  ctx.catalog = &db.catalog();
  ctx.indexes = &db.index_manager();
  ctx.latches = &db.latches();
  FillPlanContext(db, &ctx);
  return ValidatorRegistry::Default().RunAll(ctx);
}

CheckReport CheckAll(const Database& db, const MctsIndexSelector& mcts) {
  LatchManager::Guard guard =
      db.latches().AcquireShared(db.catalog().TableNames());
  CheckContext ctx;
  ctx.catalog = &db.catalog();
  ctx.indexes = &db.index_manager();
  ctx.mcts = &mcts;
  ctx.latches = &db.latches();
  FillPlanContext(db, &ctx);
  return ValidatorRegistry::Default().RunAll(ctx);
}

CheckReport CheckAll(const Catalog& catalog, const IndexManager& indexes) {
  CheckContext ctx;
  ctx.catalog = &catalog;
  ctx.indexes = &indexes;
  return ValidatorRegistry::Default().RunAll(ctx);
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
