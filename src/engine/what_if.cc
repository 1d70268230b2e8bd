#include "engine/what_if.h"

#include <algorithm>

#include "util/string_util.h"

namespace autoindex {

namespace {

void AddUnique(std::vector<std::string>* names, std::string name) {
  if (std::find(names->begin(), names->end(), name) == names->end()) {
    names->push_back(std::move(name));
  }
}

void CollectColumns(const Expr& expr, std::vector<std::string>* columns) {
  if (expr.kind == ExprKind::kColumn) AddUnique(columns, expr.column.column);
  for (const ExprPtr& child : expr.children) CollectColumns(*child, columns);
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

IndexRelevance::IndexRelevance(const Statement& stmt)
    : reads_everything_(false) {
  const auto add_table = [this](const std::string& table) {
    AddUnique(&tables_, table);
    AddUnique(&tables_, ToLower(table));
  };
  switch (stmt.kind) {
    case StatementKind::kSelect:
      for (const TableRef& ref : stmt.select->from) add_table(ref.table);
      break;
    case StatementKind::kInsert:
      add_table(stmt.insert->table);
      reads_all_on_table_ = true;
      break;
    case StatementKind::kUpdate:
      add_table(stmt.update->table);
      for (const auto& [col, _] : stmt.update->assignments) {
        AddUnique(&assigned_columns_, col);
      }
      break;
    case StatementKind::kDelete:
      add_table(stmt.del->table);
      break;
  }
  if (const Expr* where = stmt.where(); where != nullptr) {
    CollectColumns(*where, &where_columns_);
  }
}

bool IndexRelevance::CanRead(const IndexDef& def) const {
  if (reads_everything_) return true;
  if (!Contains(tables_, def.table)) return false;
  if (reads_all_on_table_) return true;
  if (!def.columns.empty() && Contains(where_columns_, def.columns[0])) {
    return true;
  }
  for (const std::string& col : def.columns) {
    if (Contains(assigned_columns_, col)) return true;
  }
  return false;
}

IndexConfig::IndexConfig(std::vector<IndexDef> defs) : defs_(std::move(defs)) {}

bool IndexConfig::Contains(const IndexDef& def) const {
  for (const IndexDef& d : defs_) {
    if (d == def) return true;
  }
  return false;
}

void IndexConfig::Add(IndexDef def) {
  if (!Contains(def)) defs_.push_back(std::move(def));
}

void IndexConfig::Remove(const IndexDef& def) {
  defs_.erase(std::remove(defs_.begin(), defs_.end(), def), defs_.end());
}

std::vector<IndexStatsView> IndexConfig::ToStatsViews(
    const Catalog& catalog) const {
  std::vector<IndexStatsView> views;
  views.reserve(defs_.size());
  for (const IndexDef& def : defs_) {
    const HeapTable* t = catalog.GetTable(def.table);
    if (t == nullptr) {
      IndexStatsView view;
      view.def = def;
      views.push_back(std::move(view));
      continue;
    }
    views.push_back(EstimateStatsView(def, *t));
  }
  return views;
}

size_t IndexConfig::TotalBytes(const Catalog& catalog) const {
  size_t total = 0;
  for (const IndexStatsView& v : ToStatsViews(catalog)) {
    total += v.size_bytes;
  }
  return total;
}

CostBreakdown WhatIfCostModel::EstimateWrite(
    const Statement& stmt, const std::vector<IndexStatsView>& views) const {
  CostBreakdown cost;
  std::string table;
  const Expr* where = nullptr;
  size_t rows_written = 1;
  enum { kIns, kUpd, kDel } op = kIns;
  if (stmt.kind == StatementKind::kInsert) {
    table = stmt.insert->table;
    rows_written = std::max<size_t>(1, stmt.insert->rows.size());
    op = kIns;
  } else if (stmt.kind == StatementKind::kUpdate) {
    table = stmt.update->table;
    where = stmt.update->where.get();
    op = kUpd;
  } else {
    table = stmt.del->table;
    where = stmt.del->where.get();
    op = kDel;
  }
  const HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return cost;

  // Read side: locate the rows (UPDATE/DELETE) by the planned access path.
  double matched_rows = static_cast<double>(rows_written);
  if (op != kIns) {
    StatusOr<TablePlan> tp = planner_.PlanWriteLookup(table, where, views);
    if (tp.ok()) {
      cost.data = tp->access.est_cost;
      matched_rows = std::max(1.0, tp->access.est_rows);
    }
  }

  // Write side: heap page dirtying.
  cost.maint_io +=
      std::max(1.0, matched_rows / t->RowsPerPage()) * kSeqPageCost;

  if (op == kDel) return cost;  // deletes defer index maintenance (Sec. V)

  // Index maintenance per affected index. Updates only touch indexes that
  // cover an assigned column.
  for (const IndexStatsView& v : views) {
    if (v.def.table != t->name()) continue;
    if (op == kUpd) {
      bool touched = false;
      for (const auto& [col, _] : stmt.update->assignments) {
        for (const std::string& icol : v.def.columns) {
          if (icol == col) {
            touched = true;
            break;
          }
        }
        if (touched) break;
      }
      if (!touched) continue;
    }
    // C^io: one leaf write per updated entry (updates pay delete+insert).
    const double writes_per_row = (op == kUpd) ? 2.0 : 1.0;
    cost.maint_io += matched_rows * writes_per_row * kSeqPageCost;
    // C^cpu per the paper's t_start + t_running.
    cost.maint_cpu += matched_rows *
                      IndexUpdateCpuCost(v.num_entries, v.height, 1);
  }
  return cost;
}

CostBreakdown WhatIfCostModel::EstimateStatement(
    const Statement& stmt, const IndexConfig& config) const {
  const std::vector<IndexStatsView> views = config.ToStatsViews(*catalog_);
  if (stmt.kind != StatementKind::kSelect) return EstimateWrite(stmt, views);
  // A read costs exactly what the planner charges for the plan it picks.
  CostBreakdown cost;
  StatusOr<SelectPlan> plan = planner_.PlanSelect(*stmt.select, views);
  if (plan.ok()) cost.data = plan->est_total_cost;
  return cost;
}

}  // namespace autoindex
