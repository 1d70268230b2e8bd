#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sql/dnf.h"
#include "util/string_util.h"

namespace autoindex {

int ResolveColumnTable(const ColumnRef& col,
                       const std::vector<TableRef>& from,
                       const Catalog& catalog) {
  if (!col.table.empty()) {
    for (size_t i = 0; i < from.size(); ++i) {
      if (from[i].alias == col.table || from[i].table == col.table) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  for (size_t i = 0; i < from.size(); ++i) {
    const HeapTable* t = catalog.GetTable(from[i].table);
    if (t != nullptr && t->schema().HasColumn(col.column)) {
      return static_cast<int>(i);  // ambiguous: first match wins
    }
  }
  return -1;
}

namespace {

// True when `col` belongs to (table, alias) in the current FROM scope.
bool ColTargets(const ColumnRef& col, const std::string& table,
                const std::string& alias, const Catalog& catalog) {
  if (!col.table.empty()) return col.table == alias || col.table == table;
  const HeapTable* t = catalog.GetTable(table);
  return t != nullptr && t->schema().HasColumn(col.column);
}

}  // namespace

std::vector<ColumnCondition> Planner::ExtractConditions(
    const Expr* where, const std::string& table, const std::string& alias,
    const std::vector<TableRef>& earlier) const {
  std::vector<ColumnCondition> conditions;
  if (where == nullptr) return conditions;
  std::vector<const Expr*> atoms;
  ExtractConjunctionAtoms(*where, &atoms);
  // Does this column belong to one of the already-placed tables? Qualified
  // names match on alias/table; unqualified names are resolved by probing
  // the earlier tables' schemas.
  auto is_earlier = [&](const ColumnRef& col) {
    for (const TableRef& ref : earlier) {
      if (!col.table.empty()) {
        if (col.table == ref.alias || col.table == ref.table) return true;
        continue;
      }
      const HeapTable* t = catalog_->GetTable(ref.table);
      if (t != nullptr && t->schema().HasColumn(col.column)) return true;
    }
    return false;
  };
  for (const Expr* atom : atoms) {
    if (atom->kind == ExprKind::kCompare) {
      const Expr& lhs = *atom->children[0];
      const Expr& rhs = *atom->children[1];
      // column-column equality spanning tables -> join condition.
      if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kColumn &&
          atom->op == CompareOp::kEq) {
        const bool lhs_here = ColTargets(lhs.column, table, alias, *catalog_);
        const bool rhs_here = ColTargets(rhs.column, table, alias, *catalog_);
        if (lhs_here && is_earlier(rhs.column)) {
          ColumnCondition c;
          c.column = lhs.column.column;
          c.kind = ColumnCondition::kEq;
          c.join_source = rhs.column;
          c.atom = atom;
          conditions.push_back(std::move(c));
        } else if (rhs_here && is_earlier(lhs.column)) {
          ColumnCondition c;
          c.column = rhs.column.column;
          c.kind = ColumnCondition::kEq;
          c.join_source = lhs.column;
          c.atom = atom;
          conditions.push_back(std::move(c));
        }
        continue;
      }
      // column <op> literal (either side).
      const Expr* col_side = nullptr;
      const Expr* lit_side = nullptr;
      CompareOp op = atom->op;
      if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kLiteral) {
        col_side = &lhs;
        lit_side = &rhs;
      } else if (lhs.kind == ExprKind::kLiteral &&
                 rhs.kind == ExprKind::kColumn) {
        col_side = &rhs;
        lit_side = &lhs;
        op = SwapCompareOp(op);
      } else {
        continue;
      }
      if (!ColTargets(col_side->column, table, alias, *catalog_)) continue;
      if (!col_side->column.table.empty() &&
          col_side->column.table != alias &&
          col_side->column.table != table) {
        continue;
      }
      ColumnCondition c;
      c.column = col_side->column.column;
      c.literal = lit_side->literal;
      c.atom = atom;
      switch (op) {
        case CompareOp::kEq:
          c.kind = ColumnCondition::kEq;
          break;
        case CompareOp::kGt:
          c.kind = ColumnCondition::kRangeLo;
          c.inclusive = false;
          break;
        case CompareOp::kGe:
          c.kind = ColumnCondition::kRangeLo;
          c.inclusive = true;
          break;
        case CompareOp::kLt:
          c.kind = ColumnCondition::kRangeHi;
          c.inclusive = false;
          break;
        case CompareOp::kLe:
          c.kind = ColumnCondition::kRangeHi;
          c.inclusive = true;
          break;
        default:
          c.kind = ColumnCondition::kOther;
          break;
      }
      conditions.push_back(std::move(c));
    } else if (atom->kind == ExprKind::kBetween &&
               atom->children[0]->kind == ExprKind::kColumn) {
      const ColumnRef& col = atom->children[0]->column;
      if (!ColTargets(col, table, alias, *catalog_)) continue;
      ColumnCondition lo;
      lo.column = col.column;
      lo.kind = ColumnCondition::kRangeLo;
      lo.literal = atom->children[1]->literal;
      lo.atom = atom;
      conditions.push_back(std::move(lo));
      ColumnCondition hi;
      hi.column = col.column;
      hi.kind = ColumnCondition::kRangeHi;
      hi.literal = atom->children[2]->literal;
      hi.atom = atom;
      conditions.push_back(std::move(hi));
    } else if (atom->kind == ExprKind::kInList && !atom->negated &&
               atom->children[0]->kind == ExprKind::kColumn) {
      const ColumnRef& col = atom->children[0]->column;
      if (!ColTargets(col, table, alias, *catalog_)) continue;
      ColumnCondition c;
      c.column = col.column;
      c.kind = ColumnCondition::kIn;
      c.in_values = atom->in_list;
      c.atom = atom;
      conditions.push_back(std::move(c));
    }
  }
  return conditions;
}

double Planner::EstimateConditionSelectivity(
    const std::string& table, const ColumnCondition& cond) const {
  const std::shared_ptr<const ColumnStats> stats =
      stats_->GetColumnStats(table, cond.column);
  switch (cond.kind) {
    case ColumnCondition::kEq:
      if (cond.join_source.has_value()) {
        // Join equality: one match per distinct key on average.
        return stats != nullptr && stats->num_distinct() > 0
                   ? 1.0 / static_cast<double>(stats->num_distinct())
                   : 0.01;
      }
      return stats != nullptr ? stats->Selectivity(CompareOp::kEq, cond.literal)
                              : 0.01;
    case ColumnCondition::kRangeLo:
      return stats != nullptr
                 ? stats->Selectivity(
                       cond.inclusive ? CompareOp::kGe : CompareOp::kGt,
                       cond.literal)
                 : 0.33;
    case ColumnCondition::kRangeHi:
      return stats != nullptr
                 ? stats->Selectivity(
                       cond.inclusive ? CompareOp::kLe : CompareOp::kLt,
                       cond.literal)
                 : 0.33;
    case ColumnCondition::kIn:
      return stats != nullptr ? stats->InListSelectivity(cond.in_values) : 0.1;
    case ColumnCondition::kOther:
      return 0.5;
  }
  return 0.5;
}

double Planner::EstimateHeapFetchPages(const std::string& table,
                                       const std::string& column,
                                       double match_rows) const {
  const HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return match_rows;
  const double table_pages = static_cast<double>(t->NumPages());
  const double random_pages = std::min(table_pages, match_rows);
  const double clustered_pages = std::max(
      1.0, match_rows / static_cast<double>(t->RowsPerPage()));
  const std::shared_ptr<const ColumnStats> stats =
      stats_->GetColumnStats(table, column);
  const double corr = stats == nullptr ? 0.0 : stats->correlation();
  const double corr2 = corr * corr;
  return corr2 * clustered_pages + (1.0 - corr2) * random_pages;
}

AccessDecision SeqScanAccess(const HeapTable& table, double est_rows) {
  AccessDecision seq;
  seq.est_rows = est_rows;
  seq.est_match_rows = static_cast<double>(table.num_rows());
  seq.est_cost = static_cast<double>(table.NumPages()) * kSeqPageCost +
                 seq.est_match_rows * kCpuTupleCost;
  return seq;
}

AccessDecision Planner::ChooseAccessPath(
    const std::string& table,
    const std::vector<ColumnCondition>& conditions,
    const std::vector<IndexStatsView>& table_indexes) const {
  const HeapTable* t = catalog_->GetTable(table);
  const double table_rows =
      t == nullptr ? 0.0 : static_cast<double>(t->num_rows());

  // Selectivity of ALL table-local conditions (applies to any path).
  double full_sel = 1.0;
  for (const ColumnCondition& c : conditions) {
    full_sel *= EstimateConditionSelectivity(table, c);
  }
  const double result_rows = std::max(0.0, table_rows * full_sel);

  // Sequential scan baseline.
  AccessDecision best =
      t == nullptr ? AccessDecision{} : SeqScanAccess(*t, result_rows);

  // Index paths: match the longest leading equality prefix, optionally one
  // range on the next column (classic B+Tree sargability).
  for (const IndexStatsView& view : table_indexes) {
    size_t eq_len = 0;
    double prefix_sel = 1.0;
    bool has_range = false;
    for (const std::string& icol : view.def.columns) {
      const ColumnCondition* eq = nullptr;
      const ColumnCondition* range = nullptr;
      for (const ColumnCondition& c : conditions) {
        if (c.column != icol) continue;
        if (c.kind == ColumnCondition::kEq) eq = &c;
        if (c.kind == ColumnCondition::kRangeLo ||
            c.kind == ColumnCondition::kRangeHi) {
          range = &c;
        }
      }
      if (eq != nullptr) {
        prefix_sel *= EstimateConditionSelectivity(table, *eq);
        ++eq_len;
        continue;
      }
      if (range != nullptr) {
        // Combine every range condition on this column.
        double range_sel = 1.0;
        for (const ColumnCondition& c : conditions) {
          if (c.column == icol && (c.kind == ColumnCondition::kRangeLo ||
                                   c.kind == ColumnCondition::kRangeHi)) {
            range_sel *= EstimateConditionSelectivity(table, c);
          }
        }
        prefix_sel *= range_sel;
        has_range = true;
      }
      break;  // prefix broken
    }
    if (eq_len == 0 && !has_range) continue;  // unusable index

    const double match_rows = std::max(1.0, table_rows * prefix_sel);
    const double height = static_cast<double>(view.height);
    // Local indexes pay one descent per partition unless an equality on
    // the partition column pins the shard (Sec. III index type selection).
    double descents = 1.0;
    if (view.partitions > 1 && t != nullptr && t->partitioned()) {
      const std::string& pcol =
          t->schema()
              .column(static_cast<size_t>(t->partition_column()))
              .name;
      bool pruned = false;
      for (const ColumnCondition& c : conditions) {
        if (c.column == pcol && c.kind == ColumnCondition::kEq) {
          pruned = true;
          break;
        }
      }
      if (!pruned) descents = static_cast<double>(view.partitions);
    }
    // Index descent + leaf traversal + heap fetches blended by physical
    // correlation; classic what-if costing.
    const double descent_pages = descents * height;
    const double leaf_pages =
        std::max(1.0, match_rows / static_cast<double>(LeafCapacityForWidth(
                          t == nullptr ? 8 : view.def.KeyWidth(t->schema()))));
    const double heap_pages =
        EstimateHeapFetchPages(table, view.def.columns[0], match_rows);
    const double cost = (descent_pages + leaf_pages) * kRandomPageCost +
                        heap_pages * kRandomPageCost +
                        match_rows * (kCpuIndexTupleCost + kCpuTupleCost);
    if (cost < best.est_cost) {
      best.use_index = true;
      best.index = view.def;
      best.eq_prefix_len = eq_len;
      best.has_range = has_range;
      best.est_rows = result_rows;
      best.est_match_rows = match_rows;
      best.est_cost = cost;
      best.descent_pages = descent_pages;
      best.leaf_pages = leaf_pages;
      best.heap_fetch_pages = heap_pages;
    }
  }
  return best;
}

StatusOr<SelectPlan> Planner::PlanSelect(
    const SelectStatement& stmt,
    const std::vector<IndexStatsView>& config) const {
  SelectPlan plan;
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT without FROM");
  }
  for (const TableRef& ref : stmt.from) {
    if (catalog_->GetTable(ref.table) == nullptr) {
      return Status::NotFound("no such table: " + ref.table);
    }
  }

  // Greedy join ordering: repeatedly pick the unplaced table with the
  // smallest estimated cardinality among those connected to the placed set
  // (or any table when none is connected yet / first pick).
  const size_t n = stmt.from.size();
  std::vector<bool> placed(n, false);
  std::vector<TableRef> earlier;
  for (size_t step = 0; step < n; ++step) {
    int best_idx = -1;
    double best_card = 0.0;
    bool best_connected = false;
    std::vector<ColumnCondition> best_conditions;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      const TableRef& ref = stmt.from[i];
      std::vector<ColumnCondition> conds = ExtractConditions(
          stmt.where.get(), ref.table, ref.alias, earlier);
      bool connected = false;
      double sel = 1.0;
      for (const ColumnCondition& c : conds) {
        if (c.join_source.has_value()) connected = true;
        sel *= EstimateConditionSelectivity(ref.table, c);
      }
      const HeapTable* t = catalog_->GetTable(ref.table);
      const double card = std::max(1.0, t->num_rows() * sel);
      // Prefer connected tables after the first placement to avoid
      // cartesian products; among candidates pick the smallest output.
      const bool better =
          best_idx < 0 ||
          (connected && !best_connected) ||
          (connected == best_connected && card < best_card);
      if ((step == 0 || connected || best_idx < 0) && better) {
        best_idx = static_cast<int>(i);
        best_card = card;
        best_connected = connected;
        best_conditions = std::move(conds);
      }
    }
    if (best_idx < 0) {
      // Disconnected remainder: pick the smallest-cardinality table.
      for (size_t i = 0; i < n; ++i) {
        if (!placed[i]) {
          best_idx = static_cast<int>(i);
          best_conditions = ExtractConditions(stmt.where.get(),
                                              stmt.from[i].table,
                                              stmt.from[i].alias, earlier);
          break;
        }
      }
    }
    placed[best_idx] = true;
    TablePlan tp;
    tp.ref = stmt.from[best_idx];
    tp.conditions = std::move(best_conditions);
    // Index config entries for this table.
    std::vector<IndexStatsView> table_indexes;
    for (const IndexStatsView& v : config) {
      if (v.def.table == tp.ref.table) table_indexes.push_back(v);
    }
    tp.access = ChooseAccessPath(tp.ref.table, tp.conditions, table_indexes);
    earlier.push_back(tp.ref);
    plan.tables.push_back(std::move(tp));
  }

  // Estimated cost: each join level priced the way LowerSelect runs it.
  //   - An index level probes once per outer row, paying the per-probe
  //     page and tuple terms. Its heap fetches are capped at one pass over
  //     the table, because ExecContext::probed_heap_pages counts each page
  //     once per query.
  //   - A join level builds a HashJoinOp unless it keeps its index: one
  //     build scan, one probe per outer row. ChooseAccessPath priced a
  //     single probe; with the outer cardinality known, the index stays
  //     only if its probes cost less than the hash join. A dropped index
  //     leaves the level the sequential scan HashJoinOp runs.
  //   - Any other level is scanned once; NestedLoopJoinOp drains its inner
  //     side once.
  // Each level records its output rows and the cost through it.
  double outer_rows = 1.0;
  double total = 0.0;
  for (TablePlan& tp : plan.tables) {
    const HeapTable* t = catalog_->GetTable(tp.ref.table);
    AccessDecision& access = tp.access;
    double level_cost = access.est_cost;  // one sequential scan
    if (access.use_index) {
      const double heap_pages =
          std::min(static_cast<double>(t->NumPages()),
                   outer_rows * access.heap_fetch_pages);
      level_cost =
          (outer_rows * (access.descent_pages + access.leaf_pages) +
           heap_pages) *
              kRandomPageCost +
          outer_rows * access.est_match_rows *
              (kCpuIndexTupleCost + kCpuTupleCost);
    }
    const bool has_join =
        std::any_of(tp.conditions.begin(), tp.conditions.end(),
                    [](const ColumnCondition& c) {
                      return c.join_source.has_value();
                    });
    if (has_join) {
      const double hash_total =
          PriceHashJoin(t->NumPages(), t->num_rows(), outer_rows);
      if (!access.use_index || hash_total < level_cost) {
        access = SeqScanAccess(*t, access.est_rows);
        level_cost = hash_total;
      }
    }
    total += level_cost;
    // est_rows already folds the join-equality selectivity (1/distinct),
    // so expected matches per outer row times outer cardinality is simply
    // the product.
    outer_rows = std::max(1.0, outer_rows * access.est_rows);
    tp.est_level_rows = outer_rows;
    tp.est_level_cost = total;
  }
  // Sort / aggregation CPU over the joined rows.
  if ((!stmt.order_by.empty() || !stmt.group_by.empty()) && outer_rows > 1.0) {
    total += outer_rows * std::log2(outer_rows) * kCpuOperatorCost;
  }
  plan.est_result_rows = outer_rows;
  plan.est_total_cost = total;
  return plan;
}

StatusOr<TablePlan> Planner::PlanWriteLookup(
    const std::string& table, const Expr* where,
    const std::vector<IndexStatsView>& config) const {
  if (catalog_->GetTable(table) == nullptr) {
    return Status::NotFound("no such table: " + table);
  }
  TablePlan tp;
  tp.ref = TableRef(table);
  tp.conditions = ExtractConditions(where, table, table, {});
  std::vector<IndexStatsView> table_indexes;
  for (const IndexStatsView& v : config) {
    if (v.def.table == ToLower(table)) table_indexes.push_back(v);
  }
  tp.access = ChooseAccessPath(table, tp.conditions, table_indexes);
  return tp;
}

}  // namespace autoindex
