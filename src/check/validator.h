#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace autoindex {

class Catalog;
class Database;
class IndexManager;
class LatchManager;
class MctsIndexSelector;
struct ExecStats;
struct PlanNodeSnapshot;

// One violated structural invariant, attributed to the validator that
// found it. `detail` names the exact structure and the nature of the
// damage (e.g. "btree idx_orders_customer_id: reported num_entries 10 but
// leaves hold 9") so a failing check is actionable without a debugger.
struct CheckIssue {
  std::string validator;
  std::string detail;
};

// The outcome of running one or more validators. Empty issue list = every
// structure passed.
class CheckReport {
 public:
  void AddIssue(std::string validator, std::string detail) {
    issues_.push_back({std::move(validator), std::move(detail)});
  }
  // Validators call this once per structure examined, so "0 issues" can be
  // told apart from "0 structures looked at" — an always-green validator
  // that inspects nothing would show up here.
  void NoteStructureChecked() { ++structures_checked_; }

  bool ok() const { return issues_.empty(); }
  const std::vector<CheckIssue>& issues() const { return issues_; }
  size_t structures_checked() const { return structures_checked_; }

  // "OK (7 structures checked)" or one line per issue.
  std::string ToString() const;

  // Folds another report into this one (registry aggregation).
  void Merge(const CheckReport& other);

 private:
  std::vector<CheckIssue> issues_;
  size_t structures_checked_ = 0;
};

// Everything a validator may inspect. Each pointer is optional —
// validators no-op on the parts that are absent — so the storage-level
// validators run equally against a bare Catalog/IndexManager pair (unit
// tests) and a full Database (CheckAll fills all fields it can).
struct CheckContext {
  const Catalog* catalog = nullptr;
  const IndexManager* indexes = nullptr;
  const MctsIndexSelector* mcts = nullptr;
  // The executor's last read pipeline and the statement stats it summed
  // into (absent until a SELECT/UPDATE/DELETE ran). Checked by the
  // physical-plan validator.
  const PlanNodeSnapshot* last_plan = nullptr;
  const ExecStats* last_plan_stats = nullptr;
  // The database's table-latch manager (absent in bare storage-level
  // checks). Audited by the LatchValidator.
  const LatchManager* latches = nullptr;
};

// A structural invariant checker over one subsystem. Implementations live
// in src/check/*_validator.cc and are registered with the default
// registry; new subsystems (sharding, caches, ...) add their own validator
// here and every CheckAll call site picks it up for free.
class Validator {
 public:
  virtual ~Validator() = default;
  virtual const char* name() const = 0;
  virtual void Validate(const CheckContext& ctx, CheckReport* report) const = 0;
};

// Holds validators and runs them in registration order. The default
// registry carries every built-in validator; tests may build private
// registries to run a single validator in isolation.
class ValidatorRegistry {
 public:
  ValidatorRegistry() = default;
  ValidatorRegistry(const ValidatorRegistry&) = delete;
  ValidatorRegistry& operator=(const ValidatorRegistry&) = delete;

  // The process-wide registry, pre-populated with the built-in validators
  // (B+Tree, heap table, catalog/index-manager, MCTS policy tree).
  static ValidatorRegistry& Default();

  void Register(std::unique_ptr<Validator> validator);
  CheckReport RunAll(const CheckContext& ctx) const;
  size_t size() const { return validators_.size(); }

 private:
  std::vector<std::unique_ptr<Validator>> validators_;
};

// Runs every registered validator over the database (and, in the second
// overload, an MCTS selector's policy tree). This is the entry point
// tests, the shell's \check command, and the debug-mode engine hook use.
CheckReport CheckAll(const Database& db);
CheckReport CheckAll(const Database& db, const MctsIndexSelector& mcts);

// Debug-mode wiring: installs an invariant hook on `db` so that every
// mutating statement batch (INSERT/UPDATE/DELETE, BulkInsert, index DDL)
// is followed by a full CheckAll; a failure surfaces as that operation's
// status. Call with install=false to remove the hook.
void InstallDebugChecks(Database* db, bool install = true);

}  // namespace autoindex
