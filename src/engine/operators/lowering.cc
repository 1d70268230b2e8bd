#include "engine/operators/lowering.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "engine/operators/join_ops.h"
#include "engine/operators/pipeline_ops.h"
#include "engine/operators/scan_ops.h"

namespace autoindex {
namespace {

BuiltIndex* FindBuiltIndex(IndexManager* indexes, const TablePlan& tp) {
  if (!tp.access.use_index) return nullptr;
  for (BuiltIndex* bi : indexes->IndexesOnTable(tp.ref.table)) {
    if (bi->def() == tp.access.index) return bi;
  }
  return nullptr;
}

void NoteIndexUse(BuiltIndex* bi, PhysicalPlan* pp,
                  std::unordered_set<std::string>* seen) {
  bi->RecordUse();
  pp->used_index = true;
  const std::string name = bi->def().DisplayName();
  if (seen->insert(name).second) pp->indexes_used.push_back(name);
}

}  // namespace

std::unique_ptr<PhysicalPlan> LowerSelect(const SelectStatement& stmt,
                                          SelectPlan plan,
                                          const Catalog* catalog,
                                          IndexManager* indexes) {
  auto pp = std::make_unique<PhysicalPlan>();
  pp->logical = std::move(plan);
  pp->ctx = std::make_unique<ExecContext>();
  pp->ctx->catalog = catalog;
  ExecContext* ctx = pp->ctx.get();
  const std::vector<TablePlan>& tables = pp->logical.tables;

  std::unordered_set<std::string> seen_indexes;
  std::unique_ptr<PhysicalOperator> root;
  double outer_est_rows = 1.0;

  for (size_t level = 0; level < tables.size(); ++level) {
    const TablePlan& tp = tables[level];
    BuiltIndex* bi = FindBuiltIndex(indexes, tp);
    std::unique_ptr<IndexScanOp> index_scan;
    if (bi != nullptr) {
      NoteIndexUse(bi, pp.get(), &seen_indexes);
      index_scan = std::make_unique<IndexScanOp>(ctx, tables, level, bi);
      if (!index_scan->key_bound()) index_scan.reset();
    }

    if (level == 0) {
      if (index_scan != nullptr) {
        root = std::move(index_scan);
      } else {
        root = std::make_unique<SeqScanOp>(ctx, tables, 0);
      }
      root->set_estimates(tp.access.est_rows, tp.access.est_cost);
      outer_est_rows = tp.access.est_rows;
      continue;
    }

    const double join_est_rows =
        outer_est_rows * std::max(tp.access.est_match_rows, 0.0);
    const double join_est_cost = root->est_cost() + tp.access.est_cost;
    if (index_scan != nullptr) {
      index_scan->set_estimates(tp.access.est_match_rows, tp.access.est_cost);
      root = std::make_unique<IndexNestedLoopJoinOp>(
          ctx, tables, level, std::move(root), std::move(index_scan));
      root->set_estimates(join_est_rows, join_est_cost);
    } else {
      // The planner's index pick may be unbindable (a join source shadowed
      // by this table); degrade to the hash/cartesian paths.
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
      if (!join_cols.empty()) {
        root = std::make_unique<HashJoinOp>(
            ctx, tables, level, std::move(root), std::move(inner),
            std::move(join_cols), std::move(join_sources));
        root->set_estimates(join_est_rows, join_est_cost);
      } else {
        root = std::make_unique<NestedLoopJoinOp>(
            ctx, tables, level, std::move(root), std::move(inner));
        root->set_estimates(outer_est_rows * tp.access.est_rows,
                            join_est_cost);
      }
    }
    outer_est_rows = root->est_rows();
  }

  // Everything above the join chain reads the fully-joined tuple.
  const ColumnBinder row(*catalog, tables, tables.size() - 1);
  const double est_rows = pp->logical.est_result_rows;
  const double est_cost = pp->logical.est_total_cost;
  if (stmt.where != nullptr) {
    root = std::make_unique<FilterOp>(row.Bind(*stmt.where), std::move(root));
    root->set_estimates(est_rows, est_cost);
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
    root = std::make_unique<HashAggregateOp>(&stmt.items, &stmt.group_by,
                                             std::move(item_cols),
                                             std::move(group), std::move(root));
    root->set_estimates(est_rows, est_cost);
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
    root = std::make_unique<SortOp>(
        &stmt.order_by, std::move(keys),
        has_agg ? SortOp::Mode::kSlotKeys : SortOp::Mode::kTupleKeys,
        std::move(root));
    root->set_estimates(est_rows, est_cost);
  }
  if (stmt.limit >= 0) {
    const double capped =
        std::min(static_cast<double>(stmt.limit), root->est_rows());
    root = std::make_unique<LimitOp>(static_cast<size_t>(stmt.limit),
                                     std::move(root));
    root->set_estimates(capped, est_cost);
  }
  if (!has_agg) {
    root = std::make_unique<ProjectOp>(&stmt.items, std::move(item_cols),
                                       std::move(root));
    root->set_estimates(est_rows, est_cost);
  }

  pp->root = std::move(root);
  return pp;
}

std::unique_ptr<PhysicalPlan> LowerWriteLookup(TablePlan tp,
                                               const Expr* where,
                                               const Catalog* catalog,
                                               IndexManager* indexes) {
  auto pp = std::make_unique<PhysicalPlan>();
  pp->logical.tables.push_back(std::move(tp));
  pp->logical.est_result_rows = pp->logical.tables[0].access.est_rows;
  pp->logical.est_total_cost = pp->logical.tables[0].access.est_cost;
  pp->ctx = std::make_unique<ExecContext>();
  pp->ctx->catalog = catalog;
  ExecContext* ctx = pp->ctx.get();
  const std::vector<TablePlan>& tables = pp->logical.tables;
  const TablePlan& t0 = tables[0];

  BuiltIndex* bi = FindBuiltIndex(indexes, t0);
  std::unique_ptr<PhysicalOperator> root;
  if (bi != nullptr) {
    std::unordered_set<std::string> seen;
    NoteIndexUse(bi, pp.get(), &seen);
    root = std::make_unique<IndexScanOp>(ctx, tables, 0, bi);
  } else {
    root = std::make_unique<SeqScanOp>(ctx, tables, 0);
  }
  root->set_estimates(t0.access.est_rows, t0.access.est_cost);
  if (where != nullptr) {
    root = std::make_unique<FilterOp>(
        ColumnBinder(*catalog, tables, 0).Bind(*where), std::move(root));
    root->set_estimates(t0.access.est_rows, t0.access.est_cost);
  }
  pp->root = std::move(root);
  return pp;
}

}  // namespace autoindex
