#include "engine/operators/lowering.h"

#include <algorithm>
#include <utility>

#include "engine/operators/join_ops.h"
#include "engine/operators/pipeline_ops.h"
#include "engine/operators/scan_ops.h"

namespace autoindex {
namespace {

// Notes the index an IndexScanOp over `tp` probes in the plan's
// deduplicated use list.
void NoteIndexUse(const TablePlan& tp, PhysicalPlan* pp) {
  const std::string name = tp.access.index.DisplayName();
  if (std::find(pp->indexes_used.begin(), pp->indexes_used.end(), name) ==
      pp->indexes_used.end()) {
    pp->indexes_used.push_back(name);
  }
}

std::unique_ptr<PhysicalPlan> NewPlan(const Catalog* catalog,
                                      IndexManager* indexes) {
  auto pp = std::make_unique<PhysicalPlan>();
  pp->ctx = std::make_unique<ExecContext>();
  pp->ctx->catalog = catalog;
  pp->ctx->indexes = indexes;
  return pp;
}

}  // namespace

std::unique_ptr<PhysicalPlan> LowerSelect(const SelectStatement& stmt,
                                          SelectPlan plan,
                                          const Catalog* catalog,
                                          IndexManager* indexes) {
  std::unique_ptr<PhysicalPlan> pp = NewPlan(catalog, indexes);
  pp->logical = std::move(plan);
  ExecContext* ctx = pp->ctx.get();
  const std::vector<TablePlan>& tables = pp->logical.tables;

  // Every operator carries the plan's figures: a level's operator its
  // level's rows and cumulative cost, an inner index scan its access
  // decision (per probe under an IndexNestedLoopJoin), an inner sequential
  // scan its sequential access: the rows its table's literal conditions
  // pass and the price of one pass.
  std::unique_ptr<PhysicalOperator> root;
  auto push = [&root](std::unique_ptr<PhysicalOperator> op, double rows,
                      double cost) {
    op->set_estimates(rows, cost);
    root = std::move(op);
  };
  for (size_t level = 0; level < tables.size(); ++level) {
    const TablePlan& tp = tables[level];
    // The planner keys an index only on sources the scan can bind.
    std::unique_ptr<IndexScanOp> index_scan;
    if (tp.access.use_index) {
      index_scan = std::make_unique<IndexScanOp>(ctx, tables, level);
      if (!index_scan->key_bound()) {
        CheckOk(Status::Internal("planned index key unbound: " +
                                 tp.access.index.Key()));
      }
      NoteIndexUse(tp, pp.get());
    }
    if (level == 0) {
      std::unique_ptr<PhysicalOperator> scan = std::move(index_scan);
      if (scan == nullptr) scan = std::make_unique<SeqScanOp>(ctx, tables, 0);
      push(std::move(scan), tp.est_level_rows, tp.est_level_cost);
      continue;
    }
    if (index_scan != nullptr) {
      index_scan->set_estimates(tp.access.est_rows, tp.access.est_cost);
      push(std::make_unique<IndexNestedLoopJoinOp>(
               ctx, tables, level, std::move(root), std::move(index_scan)),
           tp.est_level_rows, tp.est_level_cost);
      continue;
    }
    std::vector<std::string> join_cols;
    std::vector<ColumnRef> join_sources;
    for (const ColumnCondition& c : tp.conditions) {
      if (c.join_source.has_value() && c.kind == ColumnCondition::kEq) {
        join_cols.push_back(c.column);
        join_sources.push_back(*c.join_source);
      }
    }
    auto inner = std::make_unique<SeqScanOp>(ctx, tables, level);
    inner->set_estimates(tp.access.est_rows, tp.access.est_cost);
    if (join_cols.empty()) {
      push(std::make_unique<NestedLoopJoinOp>(ctx, tables, level,
                                              std::move(root),
                                              std::move(inner)),
           tp.est_level_rows, tp.est_level_cost);
    } else {
      push(std::make_unique<HashJoinOp>(
               ctx, tables, level, std::move(root), std::move(inner),
               std::move(join_cols), std::move(join_sources)),
           tp.est_level_rows, tp.est_level_cost);
    }
  }

  // Everything above the join chain reads the fully-joined tuple. The
  // sort/aggregate term of the plan's price belongs to HashAggregate under
  // GROUP BY, else to Sort.
  const ColumnBinder row(*catalog, tables, tables.size() - 1);
  const double result_rows = pp->logical.est_result_rows;
  const double joined_cost = tables.back().est_level_cost;
  const double total_cost = pp->logical.est_total_cost;
  if (stmt.where != nullptr) {
    push(std::make_unique<FilterOp>(row.Bind(*stmt.where), std::move(root)),
         result_rows, joined_cost);
  }

  const bool has_agg =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& it) { return it.agg != AggFunc::kNone; });
  std::vector<BoundValue> item_cols;
  for (const SelectItem& item : stmt.items) {
    item_cols.push_back(item.star ? BoundValue{} : row.Bind(item.column));
  }

  if (has_agg) {
    std::vector<BoundValue> group;
    for (const ColumnRef& g : stmt.group_by) group.push_back(row.Bind(g));
    const bool grouped = !stmt.group_by.empty();
    push(std::make_unique<HashAggregateOp>(&stmt.items, &stmt.group_by,
                                           std::move(item_cols),
                                           std::move(group), std::move(root)),
         grouped ? result_rows : 1.0, grouped ? total_cost : joined_cost);
  }
  if (!stmt.order_by.empty()) {
    // Over grouped output, ORDER BY columns match select items by name and
    // read that slot of the aggregate row; unmatched columns are ignored
    // (historical semantics).
    std::vector<SortOp::Key> keys;
    for (const OrderByItem& o : stmt.order_by) {
      if (!has_agg) {
        keys.push_back({row.Bind(o.column), o.desc});
        continue;
      }
      for (size_t k = 0; k < stmt.items.size(); ++k) {
        if (!stmt.items[k].star &&
            stmt.items[k].column.column == o.column.column) {
          keys.push_back({BoundValue{nullptr, 0, static_cast<int>(k)}, o.desc});
          break;
        }
      }
    }
    const double rows = root->est_rows();
    push(std::make_unique<SortOp>(
             &stmt.order_by, std::move(keys),
             has_agg ? SortOp::Mode::kSlotKeys : SortOp::Mode::kTupleKeys,
             std::move(root)),
         rows, total_cost);
  }
  if (stmt.limit >= 0) {
    const double capped =
        std::min(static_cast<double>(stmt.limit), root->est_rows());
    push(std::make_unique<LimitOp>(static_cast<size_t>(stmt.limit),
                                   std::move(root)),
         capped, total_cost);
  }
  if (!has_agg) {
    const double rows = root->est_rows();
    push(std::make_unique<ProjectOp>(&stmt.items, std::move(item_cols),
                                     std::move(root)),
         rows, total_cost);
  }

  pp->root = std::move(root);
  return pp;
}

std::unique_ptr<PhysicalPlan> LowerWriteLookup(TablePlan tp,
                                               const Expr* where,
                                               const Catalog* catalog,
                                               IndexManager* indexes) {
  std::unique_ptr<PhysicalPlan> pp = NewPlan(catalog, indexes);
  pp->logical.tables.push_back(std::move(tp));
  const std::vector<TablePlan>& tables = pp->logical.tables;
  const AccessDecision& access = tables[0].access;
  std::unique_ptr<PhysicalOperator> root;
  if (access.use_index) {
    NoteIndexUse(tables[0], pp.get());
    root = std::make_unique<IndexScanOp>(pp->ctx.get(), tables, 0);
  } else {
    root = std::make_unique<SeqScanOp>(pp->ctx.get(), tables, 0);
  }
  root->set_estimates(access.est_rows, access.est_cost);
  if (where != nullptr) {
    root = std::make_unique<FilterOp>(
        ColumnBinder(*catalog, tables, 0).Bind(*where), std::move(root));
    root->set_estimates(access.est_rows, access.est_cost);
  }
  pp->root = std::move(root);
  return pp;
}

}  // namespace autoindex
