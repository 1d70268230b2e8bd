#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/operators/operator.h"
#include "index/index_manager.h"

namespace autoindex {

// An executable physical plan: the operator tree plus the state it borrows.
// The logical plan is owned here because operators keep references into
// `logical.tables` (conditions, access decisions) for their lifetime.
struct PhysicalPlan {
  SelectPlan logical;
  std::unique_ptr<ExecContext> ctx;
  std::unique_ptr<PhysicalOperator> root;
  // Display names of the indexes this plan's IndexScans probe,
  // deduplicated, in plan (join) order — a self-join probing one index
  // twice lists it once.
  std::vector<std::string> indexes_used;
};

// Lowers a planned SELECT into a physical operator tree:
//
//   Project / HashAggregate [+ Sort] [+ Limit]
//     Filter                       (full WHERE, when present)
//       join chain                 (left-deep, one operator per level)
//         SeqScan | IndexScan      (leftmost table)
//
// Join levels become IndexNestedLoopJoin when the planner chose an index
// whose key prefix is statically bindable from the outer tuple, HashJoin
// when equality join conditions exist, and a cartesian NestedLoopJoin
// otherwise. Operators carry the plan's own figures. Lowering has no side
// effect, so any IndexConfig lowers, hypothetical indexes included.
std::unique_ptr<PhysicalPlan> LowerSelect(const SelectStatement& stmt,
                                          SelectPlan plan,
                                          const Catalog* catalog,
                                          IndexManager* indexes);

// Lowers the row-location part of UPDATE/DELETE: a single scan (the index
// the planner chose, bound by its equality prefix and/or range, else a
// sequential scan) under an optional Filter with the full WHERE. Matched
// RowIds surface through ExecTuple::rids.
std::unique_ptr<PhysicalPlan> LowerWriteLookup(TablePlan tp,
                                               const Expr* where,
                                               const Catalog* catalog,
                                               IndexManager* indexes);

}  // namespace autoindex
