#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/cost_model.h"
#include "engine/planner.h"
#include "obs/trace.h"
#include "sql/statement.h"
#include "storage/catalog.h"

namespace autoindex {

// Runtime counters every physical operator maintains while pulling tuples.
// The statement-level ExecStats is derived by summing these over the tree
// (AccumulateOperatorCounters), so per-operator and whole-statement
// accounting cannot drift apart. Fields are signed so the plan validator
// can flag corrupted (negative) counters.
struct OperatorStats {
  int64_t rows_in = 0;            // tuples pulled from the outer/child side
  int64_t rows_out = 0;           // tuples emitted to the parent
  int64_t heap_pages_read = 0;
  int64_t index_pages_read = 0;
  int64_t tuples_examined = 0;    // heap tuples materialized/filtered
  int64_t index_tuples_read = 0;  // index entries touched by scans
  int64_t sort_rows = 0;          // rows passed through sort/group work
  int64_t comparisons = 0;        // predicate/key evaluations performed
};

// A tuple flowing through the pipeline: one row per placed base table (in
// join order), with the originating RowIds alongside so write lookups can
// address the heap. Row-shaped operators (Project/HashAggregate) emit one
// derived slot with kInvalidRowId, pointing at a row they own.
//
// Slots point into the heap rather than copying rows. The pointers stay
// valid for the whole statement: a SELECT holds shared latches on all its
// tables until it finishes, so no writer can touch (or reallocate) their
// heaps, and an UPDATE/DELETE runs its lookup pipeline to completion,
// collecting RowIds (Executor::LookupRows), before it mutates any row.
struct ExecTuple {
  std::vector<const Row*> slots;
  std::vector<RowId> rids;
};

// Where a value is read at run time: a constant, or a column bound at
// lowering to its tuple slot (join level) and schema ordinal. With neither
// it is unbound, "no value": an atom over it is false and a projection of
// it is NULL.
struct BoundValue {
  const Value* literal = nullptr;
  int slot = -1;
  int ord = -1;

  bool bound() const { return literal != nullptr || slot >= 0; }
  const Value* Read(const ExecTuple& t) const {
    if (literal != nullptr) return literal;
    if (slot < 0) return nullptr;
    return &(*t.slots[static_cast<size_t>(slot)])[static_cast<size_t>(ord)];
  }
  const Value& ReadOrNull(const ExecTuple& t) const;
};

// A predicate with its column references bound at lowering. Connectives
// keep their children; atoms keep one operand per child (see sql's
// EvaluateAtom, which gives them their meaning).
struct BoundPredicate {
  const Expr* expr = nullptr;
  std::vector<BoundPredicate> children;  // kAnd / kOr / kNot
  std::vector<BoundValue> operands;      // atoms

  bool Eval(const ExecTuple& t) const;
};

// The engine's one column-resolution rule, applied once per reference at
// lowering. A reference is resolved over the join prefix tables[0..level]:
// the newest table is searched first, a qualifier matches either the alias
// or the table name, and the first schema match wins. The match is bound
// only when its table's row is in view where the result is read — slots
// [view_begin, view_end) — and is otherwise unbound, exactly as if no row
// were there (so a name shadowed by the table being placed does not fall
// through to an earlier table).
class ColumnBinder {
 public:
  ColumnBinder(const Catalog& catalog, const std::vector<TablePlan>& tables,
               size_t level, size_t view_begin, size_t view_end);
  // Whole prefix in view: the joined tuple of levels [0, level].
  ColumnBinder(const Catalog& catalog, const std::vector<TablePlan>& tables,
               size_t level)
      : ColumnBinder(catalog, tables, level, 0, level + 1) {}

  BoundValue Bind(const ColumnRef& col) const;
  BoundPredicate Bind(const Expr& expr) const;
  // The level's literal (local) or join-equality condition atoms.
  std::vector<BoundPredicate> BindConditions(const TablePlan& tp,
                                             bool join) const;

 private:
  const std::vector<TablePlan>& tables_;
  std::vector<const Schema*> schemas_;  // per level; null = no such table
  size_t level_;
  size_t view_begin_;
  size_t view_end_;
};

// True when every predicate holds over `t`; each evaluation bumps
// *comparisons.
bool AllHold(const std::vector<BoundPredicate>& preds, const ExecTuple& t,
             int64_t* comparisons);

// Per-statement state shared by every operator in one tree.
struct ExecContext {
  const Catalog* catalog = nullptr;
  // Heap pages fetched via index probes, deduplicated query-wide: repeated
  // probes hitting the same (hot or clustered) pages cost one read — the
  // buffer-cache behaviour the cost model's correlation blend mirrors.
  // Keys are namespaced by table name so two tables' page 0 stay distinct.
  std::unordered_set<size_t> probed_heap_pages;
};

// One access path's estimated-vs-observed execution pair. The executor
// collects these from scan operators after each statement and forwards
// them to core/benefit_estimator (the EXPLAIN ANALYZE feedback loop).
struct AccessPathFeedback {
  std::string table;         // real table name
  std::string index;         // index display name; empty = sequential scan
  double est_rows = 0.0;     // planner's expected rows from the path
  double actual_rows = 0.0;  // observed rows (mean per probe for indexes)
  double est_cost = 0.0;     // planner's access-path cost (read side)
  double actual_cost = 0.0;  // priced from the operator's own counters
};

// Copyable, pointer-free image of an executed operator tree: what EXPLAIN
// ANALYZE renders and what the PhysicalPlanValidator checks against the
// statement-level ExecStats.
struct PlanNodeSnapshot {
  std::string op;         // operator name ("IndexScan", "HashJoin", ...)
  std::string detail;     // target table / keys; empty unless requested
  double est_rows = 0.0;  // planner estimate of this operator's output
  double est_cost = 0.0;  // planner estimate of this operator's own cost
  size_t out_width = 0;   // slots per emitted tuple
  OperatorStats actual;
  std::vector<PlanNodeSnapshot> children;
};

// Sums the read-side counters of a snapshot tree into *stats. Write-side
// fields are untouched (operators only ever read).
void AccumulateOperatorCounters(const PlanNodeSnapshot& node,
                                ExecStats* stats);

// A Volcano-style physical operator: Open() prepares per-execution state,
// Next() produces the next tuple (false = exhausted), Close() tears down.
// Heavy work (materialization, hash build) happens lazily on first Next()
// so untouched subtrees cost nothing — matching the previous executor.
//
// The lifecycle entry points are non-virtual template methods so every
// operator gets a trace span for free: Open() starts a span (children
// opened inside DoOpen() nest under it), Close() stamps its duration and
// the rows_out attribute — one span per operator covering its whole
// Open..Close lifetime, with no per-Next clock reads on the tuple path.
// Implementations override DoOpen/DoNext/DoClose.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  void Open() {
    span_.Begin(name());
    DoOpen();
    span_.Leave();
  }
  bool Next(ExecTuple* out) { return DoNext(out); }
  void Close() {
    DoClose();
    span_.End("rows_out", stats_.rows_out);
  }

  virtual const char* name() const = 0;
  // Human-readable target ("on orders via idx_orders_customer_id").
  virtual std::string detail() const = 0;
  // Slots per emitted tuple (1 for scans and row-shaped operators).
  virtual size_t out_width() const = 0;
  virtual size_t num_children() const { return 0; }
  virtual const PhysicalOperator* child(size_t) const { return nullptr; }

  // Per-access-path (estimated, observed) pairs; scan operators override.
  virtual void AppendFeedback(const CostParams&,
                              std::vector<AccessPathFeedback>*) const {}

  const OperatorStats& stats() const { return stats_; }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  void set_estimates(double rows, double cost) {
    est_rows_ = rows;
    est_cost_ = cost;
  }

  // Deep, pointer-free copy of the tree with its counters. The detail
  // strings are built only on request (EXPLAIN ANALYZE renders them).
  PlanNodeSnapshot Snapshot(bool with_detail) const;

 protected:
  virtual void DoOpen() = 0;
  virtual bool DoNext(ExecTuple* out) = 0;
  virtual void DoClose() = 0;

  OperatorStats stats_;
  double est_rows_ = 0.0;
  double est_cost_ = 0.0;

 private:
  obs::OperatorSpan span_;
};

// Collects AppendFeedback over the whole tree (pre-order).
void CollectAccessPathFeedback(const PhysicalOperator& root,
                               const CostParams& params,
                               std::vector<AccessPathFeedback>* out);

}  // namespace autoindex
