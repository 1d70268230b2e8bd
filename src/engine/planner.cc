#include "engine/planner.h"

#include <algorithm>
#include <cmath>

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

// True when `col` belongs to `ref` (whose table is `t`) in the current
// FROM scope: a qualified name matches the alias or table name, an
// unqualified one is looked up in the table's schema.
bool ColTargets(const ColumnRef& col, const TableRef& ref,
                const HeapTable* t) {
  if (!col.table.empty()) {
    return col.table == ref.alias || col.table == ref.table;
  }
  return t != nullptr && t->schema().HasColumn(col.column);
}

// A condition one table may get out of the WHERE conjunction. A literal
// atom's conditions always hold. A column-column equality yields one
// candidate per side that targets the table; it holds once one of
// `sources` (the tables its other side names) is placed, and the second
// orientation (`alternative`) only when the first does not hold.
struct CandidateCondition {
  ColumnCondition cond;
  std::vector<size_t> sources;  // indexes into the tables searched
  bool alternative = false;
  double selectivity = 1.0;  // set by PlanSelect

  bool Holds(const std::vector<bool>& placed) const {
    if (!cond.join_source.has_value()) return true;
    return std::any_of(sources.begin(), sources.end(),
                       [&](size_t j) { return placed[j]; });
  }
};

// Calls fn(k) for each candidates[k] that holds with the tables `placed`
// marks, in extraction order.
template <typename Fn>
void ForEachHolding(const std::vector<CandidateCondition>& candidates,
                    const std::vector<bool>& placed, Fn fn) {
  bool prev_holds = false;
  for (size_t k = 0; k < candidates.size(); ++k) {
    const CandidateCondition& c = candidates[k];
    const bool holds = !(c.alternative && prev_holds) && c.Holds(placed);
    if (holds) fn(k);
    prev_holds = holds;
  }
}

// Every condition the WHERE conjunction's `atoms` may give `self`, with
// `others` as the tables that could be placed before it. A table pointer
// is null for a table the catalog lacks.
std::vector<CandidateCondition> ExtractCandidates(
    const std::vector<const Expr*>& atoms, const TableRef& self,
    const HeapTable* self_table, const std::vector<TableRef>& others,
    const std::vector<const HeapTable*>& other_tables) {
  auto targets_here = [&](const ColumnRef& col) {
    return ColTargets(col, self, self_table);
  };
  std::vector<CandidateCondition> out;
  auto add = [&](ColumnCondition c) {
    CandidateCondition cand;
    cand.cond = std::move(c);
    out.push_back(std::move(cand));
  };
  // The join condition `here` = `source`, if another table has `source`.
  // The binding rule resolves a source this table also has to the table
  // itself, so no index key can read it.
  auto add_join = [&](const ColumnRef& here, const ColumnRef& source,
                      const Expr* atom, bool alternative) {
    CandidateCondition cand;
    for (size_t j = 0; j < others.size(); ++j) {
      if (ColTargets(source, others[j], other_tables[j])) {
        cand.sources.push_back(j);
      }
    }
    if (cand.sources.empty()) return false;
    cand.cond.column = here.column;
    cand.cond.kind = ColumnCondition::kEq;
    cand.cond.join_source = source;
    cand.cond.source_shadowed = targets_here(source) &&
                                self_table != nullptr &&
                                self_table->schema().HasColumn(source.column);
    cand.cond.atom = atom;
    cand.alternative = alternative;
    out.push_back(std::move(cand));
    return true;
  };
  for (const Expr* atom : atoms) {
    if (atom->kind == ExprKind::kCompare) {
      const Expr& lhs = *atom->children[0];
      const Expr& rhs = *atom->children[1];
      // column-column equality spanning tables -> join condition.
      if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kColumn &&
          atom->op == CompareOp::kEq) {
        const bool first =
            targets_here(lhs.column) &&
            add_join(lhs.column, rhs.column, atom, /*alternative=*/false);
        if (targets_here(rhs.column)) {
          add_join(rhs.column, lhs.column, atom, first);
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
      if (!targets_here(col_side->column)) continue;
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
      add(std::move(c));
    } else if (atom->kind == ExprKind::kBetween &&
               atom->children[0]->kind == ExprKind::kColumn) {
      const ColumnRef& col = atom->children[0]->column;
      if (!targets_here(col)) continue;
      ColumnCondition lo;
      lo.column = col.column;
      lo.kind = ColumnCondition::kRangeLo;
      lo.literal = atom->children[1]->literal;
      lo.atom = atom;
      add(std::move(lo));
      ColumnCondition hi;
      hi.column = col.column;
      hi.kind = ColumnCondition::kRangeHi;
      hi.literal = atom->children[2]->literal;
      hi.atom = atom;
      add(std::move(hi));
    } else if (atom->kind == ExprKind::kInList && !atom->negated &&
               atom->children[0]->kind == ExprKind::kColumn) {
      const ColumnRef& col = atom->children[0]->column;
      if (!targets_here(col)) continue;
      ColumnCondition c;
      c.column = col.column;
      c.kind = ColumnCondition::kIn;
      c.in_values = atom->in_list;
      c.atom = atom;
      add(std::move(c));
    }
  }
  return out;
}

std::vector<const Expr*> ConjunctionAtoms(const Expr* where) {
  std::vector<const Expr*> atoms;
  if (where != nullptr) ExtractConjunctionAtoms(*where, &atoms);
  return atoms;
}

// Whether the statement's answer depends on its join order: a column
// reference names a column of several FROM tables (the binder resolves it
// to the one placed last), or a `*` item projects every table's columns
// in join order.
bool AnswerDependsOnJoinOrder(const SelectStatement& stmt,
                              const std::vector<const HeapTable*>& tables) {
  auto ambiguous = [&](const ColumnRef& col) {
    int matches = 0;
    for (size_t i = 0; i < stmt.from.size(); ++i) {
      const TableRef& ref = stmt.from[i];
      if (!col.table.empty() && col.table != ref.alias &&
          col.table != ref.table) {
        continue;
      }
      if (tables[i]->schema().HasColumn(col.column)) ++matches;
    }
    return matches > 1;
  };
  std::vector<ColumnRef> cols;
  for (const SelectItem& item : stmt.items) {
    if (item.star && item.agg == AggFunc::kNone) return true;
    if (!item.star) cols.push_back(item.column);
  }
  if (stmt.where != nullptr) stmt.where->CollectColumns(&cols);
  cols.insert(cols.end(), stmt.group_by.begin(), stmt.group_by.end());
  for (const OrderByItem& item : stmt.order_by) cols.push_back(item.column);
  return std::any_of(cols.begin(), cols.end(), ambiguous);
}

}  // namespace

std::vector<ColumnCondition> Planner::ExtractConditions(
    const Expr* where, const std::string& table, const std::string& alias,
    const std::vector<TableRef>& earlier) const {
  std::vector<const HeapTable*> earlier_tables;
  for (const TableRef& ref : earlier) {
    earlier_tables.push_back(catalog_->GetTable(ref.table));
  }
  std::vector<CandidateCondition> candidates = ExtractCandidates(
      ConjunctionAtoms(where), TableRef(table, alias),
      catalog_->GetTable(table), earlier, earlier_tables);
  std::vector<ColumnCondition> conditions;
  ForEachHolding(candidates, std::vector<bool>(earlier.size(), true),
                 [&](size_t k) {
                   conditions.push_back(std::move(candidates[k].cond));
                 });
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
  std::vector<double> selectivity;
  for (const ColumnCondition& c : conditions) {
    selectivity.push_back(EstimateConditionSelectivity(table, c));
  }
  return ChooseAccess(table, conditions, selectivity, table_indexes);
}

AccessDecision Planner::ChooseAccess(
    const std::string& table,
    const std::vector<ColumnCondition>& conditions,
    const std::vector<double>& selectivity,
    const std::vector<IndexStatsView>& table_indexes) const {
  const HeapTable* t = catalog_->GetTable(table);
  const double table_rows =
      t == nullptr ? 0.0 : static_cast<double>(t->num_rows());

  // Selectivity of ALL table-local conditions (applies to any path).
  double full_sel = 1.0;
  for (double sel : selectivity) full_sel *= sel;
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
      // The last equality an index key can read, and every range, on icol.
      const double* eq_sel = nullptr;
      bool range = false;
      double range_sel = 1.0;
      for (size_t k = 0; k < conditions.size(); ++k) {
        const ColumnCondition& c = conditions[k];
        if (c.column != icol) continue;
        if (c.kind == ColumnCondition::kEq && !c.source_shadowed) {
          eq_sel = &selectivity[k];
        }
        if (c.kind == ColumnCondition::kRangeLo ||
            c.kind == ColumnCondition::kRangeHi) {
          range = true;
          range_sel *= selectivity[k];
        }
      }
      if (eq_sel != nullptr) {
        prefix_sel *= *eq_sel;
        ++eq_len;
        continue;
      }
      if (range) {
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
        if (c.column == pcol && c.kind == ColumnCondition::kEq &&
            !c.source_shadowed) {
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
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT without FROM");
  }
  const size_t n = stmt.from.size();
  std::vector<const HeapTable*> tables;
  for (const TableRef& ref : stmt.from) {
    tables.push_back(catalog_->GetTable(ref.table));
    if (tables.back() == nullptr) {
      return Status::NotFound("no such table: " + ref.table);
    }
  }

  // Each table's candidate conditions with their selectivities, and its
  // indexes in `config`: found once, shared by every join order tried.
  struct TableInfo {
    std::vector<CandidateCondition> candidates;
    std::vector<IndexStatsView> indexes;
  };
  const std::vector<const Expr*> atoms = ConjunctionAtoms(stmt.where.get());
  std::vector<TableInfo> info(n);
  for (size_t i = 0; i < n; ++i) {
    const TableRef& ref = stmt.from[i];
    info[i].candidates =
        ExtractCandidates(atoms, ref, tables[i], stmt.from, tables);
    for (CandidateCondition& c : info[i].candidates) {
      c.selectivity = EstimateConditionSelectivity(ref.table, c.cond);
    }
    for (const IndexStatsView& v : config) {
      if (v.def.table == ref.table) info[i].indexes.push_back(v);
    }
  }
  auto table_rows = [&](size_t i) {
    return static_cast<double>(tables[i]->num_rows());
  };

  // Table i's estimated rows after its conditions that hold with `placed`;
  // *connected tells whether a join equality is among them.
  auto cardinality = [&](size_t i, const std::vector<bool>& placed,
                         bool* connected) {
    double sel = 1.0;
    *connected = false;
    ForEachHolding(info[i].candidates, placed, [&](size_t k) {
      const CandidateCondition& c = info[i].candidates[k];
      *connected = *connected || c.cond.join_source.has_value();
      sel *= c.selectivity;
    });
    return std::max(1.0, table_rows(i) * sel);
  };

  // Table i placed after the tables `placed` marks: its conditions, access
  // path and local rows. A table is placed once per start, so at most
  // n * n placements exist and the reserve keeps their addresses stable.
  std::vector<TablePlan> placements;
  placements.reserve(n * n);
  auto place = [&](size_t i, const std::vector<bool>& placed) {
    const std::vector<CandidateCondition>& candidates = info[i].candidates;
    TablePlan& tp = placements.emplace_back();
    tp.ref = stmt.from[i];
    std::vector<double> selectivity;
    double local_sel = 1.0;
    ForEachHolding(candidates, placed, [&](size_t k) {
      const CandidateCondition& c = candidates[k];
      tp.conditions.push_back(c.cond);
      selectivity.push_back(c.selectivity);
      if (!c.cond.join_source.has_value()) local_sel *= c.selectivity;
    });
    tp.access = ChooseAccess(tp.ref.table, tp.conditions, selectivity,
                             info[i].indexes);
    tp.est_local_rows = table_rows(i) * local_sel;
    return &tp;
  };

  // The greedy join order from `start`: repeatedly place the unplaced
  // table with the smallest estimated cardinality among those a join
  // equality connects to the placed set, or the first unplaced table when
  // none is connected (a cartesian step).
  std::vector<bool> placed(n);
  auto greedy_from = [&](size_t start) {
    placed.assign(n, false);
    std::vector<TablePlan*> levels = {place(start, placed)};
    placed[start] = true;
    while (levels.size() < n) {
      size_t next = n;
      double next_card = 0.0;
      bool next_connected = false;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        bool connected = false;
        const double card = cardinality(i, placed, &connected);
        if (next == n ||
            (connected && (!next_connected || card < next_card))) {
          next = i;
          next_card = card;
          next_connected = connected;
        }
      }
      levels.push_back(place(next, placed));
      placed[next] = true;
    }
    return levels;
  };

  // Cost-based join order: the greedy runs once from each table and the
  // cheapest plan wins. The greedy's own first pick, the smallest
  // filtered table, goes first and is kept on a tie. One table is simply
  // placed. When the answer depends on the join order, only the greedy's
  // own order runs: it depends on statistics alone, so building or
  // dropping an index cannot change the answer.
  std::vector<TablePlan*> best;
  if (n == 1) {
    best = greedy_from(0);
  } else {
    size_t first = 0;
    double first_card = 0.0;
    placed.assign(n, false);
    for (size_t i = 0; i < n; ++i) {
      bool connected = false;
      const double card = cardinality(i, placed, &connected);
      if (i == 0 || card < first_card) {
        first = i;
        first_card = card;
      }
    }
    best = greedy_from(first);
    if (!AnswerDependsOnJoinOrder(stmt, tables)) {
      double rows = 0.0;
      double best_cost = PriceLevels(stmt, best, /*record=*/false, &rows);
      for (size_t start = 0; start < n; ++start) {
        if (start == first) continue;
        std::vector<TablePlan*> levels = greedy_from(start);
        const double cost =
            PriceLevels(stmt, levels, /*record=*/false, &rows);
        if (cost < best_cost) {
          best = std::move(levels);
          best_cost = cost;
        }
      }
    }
  }
  SelectPlan plan;
  plan.est_total_cost =
      PriceLevels(stmt, best, /*record=*/true, &plan.est_result_rows);
  plan.tables.reserve(n);
  for (TablePlan* tp : best) plan.tables.push_back(std::move(*tp));
  return plan;
}

double Planner::PriceLevels(const SelectStatement& stmt,
                            const std::vector<TablePlan*>& levels,
                            bool record, double* result_rows) const {
  // Each join level is priced the way LowerSelect runs it.
  //   - An index level probes once per outer row, paying the per-probe
  //     page and tuple terms. Its heap fetches are capped at one pass over
  //     the table, because ExecContext::probed_heap_pages counts each page
  //     once per query.
  //   - A join level builds a HashJoinOp unless it keeps its index: one
  //     build scan, one probe per outer row. ChooseAccessPath priced a
  //     single probe; with the outer cardinality known, the index stays
  //     only if its probes cost less than the hash join. Otherwise the
  //     level's access becomes the sequential scan HashJoinOp runs, which
  //     emits the rows passing the table's literal conditions.
  //   - Any other level is scanned once; NestedLoopJoinOp drains its inner
  //     side once.
  double outer_rows = 1.0;
  double total = 0.0;
  for (TablePlan* level : levels) {
    const HeapTable* t = catalog_->GetTable(level->ref.table);
    const AccessDecision& access = level->access;
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
        std::any_of(level->conditions.begin(), level->conditions.end(),
                    [](const ColumnCondition& c) {
                      return c.join_source.has_value();
                    });
    bool hash_scan = false;
    if (has_join) {
      const double hash_total =
          PriceHashJoin(t->NumPages(), t->num_rows(), outer_rows);
      if (!access.use_index || hash_total < level_cost) {
        hash_scan = true;
        level_cost = hash_total;
      }
    }
    total += level_cost;
    // ChooseAccessPath's est_rows folds the join-equality selectivity
    // (1/distinct) in: matches per outer row, whichever join runs.
    outer_rows = std::max(1.0, outer_rows * access.est_rows);
    if (record) {
      if (hash_scan) level->access = SeqScanAccess(*t, level->est_local_rows);
      level->est_level_rows = outer_rows;
      level->est_level_cost = total;
    }
  }
  // Sort / aggregation CPU over the joined rows.
  if ((!stmt.order_by.empty() || !stmt.group_by.empty()) && outer_rows > 1.0) {
    total += outer_rows * std::log2(outer_rows) * kCpuOperatorCost;
  }
  *result_rows = outer_rows;
  return total;
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
