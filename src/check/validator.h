#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/metrics.h"
#include "util/status.h"

namespace autoindex {

class Catalog;
class Database;
class IndexManager;
class LatchManager;
class MctsIndexSelector;
struct ExecStats;
struct PlanNodeSnapshot;

// One violated structural invariant, attributed to the check family that
// found it. `detail` names the exact structure and the nature of the
// damage (e.g. "btree idx_orders_customer_id: reported num_entries 10 but
// leaves hold 9") so a failing check is actionable without a debugger.
struct CheckIssue {
  std::string validator;
  std::string detail;
};

// The outcome of running one or more checks. Empty issue list = every
// structure passed.
class CheckReport {
 public:
  void AddIssue(std::string validator, std::string detail) {
    issues_.push_back({std::move(validator), std::move(detail)});
  }
  // Checks call this once per structure examined, so "0 issues" can be
  // told apart from "0 structures looked at" — an always-green check that
  // inspects nothing would show up here.
  void NoteStructureChecked() { ++structures_checked_; }

  bool ok() const { return issues_.empty(); }
  const std::vector<CheckIssue>& issues() const { return issues_; }
  size_t structures_checked() const { return structures_checked_; }

  // "OK (7 structures checked)" or one line per issue.
  std::string ToString() const;

 private:
  std::vector<CheckIssue> issues_;
  size_t structures_checked_ = 0;
};

// --- The check families -------------------------------------------------
// Each function inspects exactly the structures it is handed and appends
// its findings to `report`, labelled with its family name (in brackets).

// [btree] Every B+Tree of every built index: key ordering within and
// across nodes, child/separator key-range containment, uniform leaf depth,
// leaf-chain connectivity, capacity bounds, and reported
// height/page/tuple stats matching a fresh walk (the deep walk itself
// lives in BTree::ValidateStructure, which can see node internals).
void CheckBTrees(const IndexManager& indexes, CheckReport* report);

// [heap] Every heap table: the live-row counter matches a fresh scan,
// every live slot resolves to a row of the schema's arity, and the page
// accounting (RowsPerPage / NumPages / PageOfRow) is internally
// consistent — the cost model prices scans off these numbers, so drift
// here silently skews every estimate.
void CheckHeapTables(const Catalog& catalog, CheckReport* report);

// [catalog] Catalog <-> index-manager consistency: every built index
// references a live table and existing columns, its entry count matches
// the table's live rows, and the manager's byte accounting sums over its
// indexes exactly.
void CheckCatalog(const Catalog& catalog, const IndexManager& manager,
                  CheckReport* report);

// [mcts] The MCTS selector's persistent policy tree: parent/child link
// symmetry, visit counts monotone down the tree (a node's visits >= the
// sum of its children's), benefit values inside [0, 1] and monotone up the
// tree, and the size counter matching a fresh walk (the walk itself lives
// in MctsIndexSelector::ValidateTree, which can see node internals).
void CheckPolicyTree(const MctsIndexSelector& mcts, CheckReport* report);

// [physical_plan] An executed physical plan snapshot: operator names and
// child arity, schema (tuple width) propagation, non-negative counters,
// and — the load-bearing invariant — that the per-operator counters sum
// exactly to the statement-level ExecStats the cost model priced. If the
// two accountings drift, every benefit estimate silently degrades.
void CheckLastPlan(const PlanNodeSnapshot& plan, const ExecStats& stats,
                   CheckReport* report);

// [latches] The LatchManager's bookkeeping (one consistent DebugSnapshot):
//  - a latch is never held shared and exclusive at the same time;
//  - reader/writer counts agree exactly with the per-thread held lists
//    (a count with no recorded holder is a leak; a holder with no count
//    is a double-release);
//  - every thread's held list respects the global sorted-name acquisition
//    order with no duplicates — the invariant the deadlock-freedom
//    argument rests on.
void CheckLatches(const LatchManager& latches, CheckReport* report);

// [lifecycle] The online index lifecycle (DESIGN.md §10): every
// planner-reachable index really is kReady and matches a from-scratch
// rebuild entry-for-entry (the end-to-end guarantee of the phased build:
// snapshot scan + delta catch-up + publish drain lost nothing), while
// in-flight builds stay planner-invisible, reference live schema, and
// never hold more entries than the heap has slots. A kDropping index
// observable anywhere is a leak — drops unlink atomically. The caller
// must hold shared latches on every table (CheckAll does).
void CheckLifecycle(const Catalog& catalog, const IndexManager& manager,
                    CheckReport* report);

// [metrics] A metrics registry (DESIGN.md §11):
//  - every histogram snapshot satisfies bucket_sum >= count;
//  - max_us is zero whenever count is zero, and sum_us is zero whenever
//    count is zero;
//  - no registration ever collided on kind (asking for "x" as a counter
//    and later as a gauge).
// Snapshot never returns a shard with a Record in flight (see
// LatencyHistogram), so the histogram checks hold mid-race too: a report
// means corruption.
void CheckMetrics(const util::MetricsRegistry& registry, CheckReport* report);

// [metrics] Cross-snapshot monotonicity: counters and histogram
// counts/sums in `after` must be >= their values in `before` (same
// registry, later point in time). Names present in only one snapshot are
// fine — registration is lazy. Tests and monitoring scrapers can diff any
// two snapshots with it.
void CheckMetricsMonotone(
    const std::vector<util::MetricsRegistry::MetricValue>& before,
    const std::vector<util::MetricsRegistry::MetricValue>& after,
    CheckReport* report);

// [trace] A flight-recorder snapshot (DESIGN.md §13). Every recorded
// trace must be a well-formed span tree:
//  - span ids are dense 1..N in start order, and span 1 is the only root
//    (parent 0);
//  - every parent id is a smaller id (parents start before children, so
//    the tree is acyclic by construction — a violation means the ring
//    slot was torn or overwritten mid-read);
//  - a child's [start, start+duration) interval lies inside its
//    parent's;
//  - total_us equals the root span's duration;
//  - the span count never exceeds the per-trace cap, and spans_dropped
//    is only nonzero when the cap was actually hit.
// And the recorder's bookkeeping must balance:
//  - ring occupancy == min(recorded, capacity);
//  - finished == recorded + sampled_out (every submitted trace was
//    either kept or deliberately dropped);
//  - started >= finished + cancelled (one-sided: started is read from an
//    atomic, so in-flight traces make it run ahead).
void CheckTraces(const obs::Tracer::Snapshot& snap, CheckReport* report);

// Runs every family above over the database, in the order listed: the
// storage checks on its catalog and indexes, the plan check on the
// executor's last read pipeline (once one ran), the latch audit, and the
// process-wide metrics registry and flight recorder. The second overload
// also checks an MCTS selector's policy tree. This is the entry point
// tests, the shell's \check command, and the debug-mode engine hook use.
CheckReport CheckAll(const Database& db);
CheckReport CheckAll(const Database& db, const MctsIndexSelector& mcts);

// Debug-mode wiring: installs an invariant hook on `db` so that every
// mutating statement batch (INSERT/UPDATE/DELETE, BulkInsert, index DDL)
// is followed by a full CheckAll; a failure surfaces as that operation's
// status. Call with install=false to remove the hook.
void InstallDebugChecks(Database* db, bool install = true);

}  // namespace autoindex
