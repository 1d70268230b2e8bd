#include "core/candidate_gen.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "engine/planner.h"
#include "sql/dnf.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// Predicates selecting more than this fraction of the table are not worth
// an index (the paper's 1/3 rule, Sec. IV-A: "if its selectivity is higher
// than a threshold" — higher selectivity meaning a sharper filter).
constexpr double kMaxSelectedFraction = 1.0 / 3.0;
// Cap on index width; composite predicates wider than this are truncated
// to their most selective columns.
constexpr size_t kMaxIndexColumns = 3;
// Hard cap on emitted candidates (highest-frequency templates win).
constexpr size_t kMaxCandidates = 64;
// Tables smaller than this are not worth indexing.
constexpr size_t kMinTableRows = 64;

// The real table of the FROM entry the planner resolves this column to,
// or "" when unresolved.
std::string TableOfColumn(const ColumnRef& col,
                          const std::vector<TableRef>& from,
                          const Catalog& catalog) {
  const int entry = ResolveColumnTable(col, from, catalog);
  return entry < 0 ? "" : from[entry].table;
}

// The single column an atomic predicate constrains, when it is sargable
// (column vs literal). Returns false for join atoms and non-column atoms.
bool AtomColumn(const Expr& atom, ColumnRef* col, bool* is_equality) {
  switch (atom.kind) {
    case ExprKind::kCompare: {
      const Expr& lhs = *atom.children[0];
      const Expr& rhs = *atom.children[1];
      if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kLiteral) {
        *col = lhs.column;
        *is_equality = atom.op == CompareOp::kEq;
        return true;
      }
      if (lhs.kind == ExprKind::kLiteral && rhs.kind == ExprKind::kColumn) {
        *col = rhs.column;
        *is_equality = atom.op == CompareOp::kEq;
        return true;
      }
      return false;
    }
    case ExprKind::kBetween:
    case ExprKind::kInList:
      if (atom.children[0]->kind == ExprKind::kColumn) {
        *col = atom.children[0]->column;
        *is_equality = atom.kind == ExprKind::kInList && !atom.negated;
        return true;
      }
      return false;
    default:
      return false;
  }
}

// True for a cross-column equality (potential join predicate).
bool IsJoinAtom(const Expr& atom, ColumnRef* left, ColumnRef* right) {
  if (atom.kind != ExprKind::kCompare || atom.op != CompareOp::kEq) {
    return false;
  }
  const Expr& lhs = *atom.children[0];
  const Expr& rhs = *atom.children[1];
  if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kColumn) {
    *left = lhs.column;
    *right = rhs.column;
    return true;
  }
  return false;
}

}  // namespace

std::vector<IndexDef> MergeCandidates(std::vector<IndexDef> candidates) {
  // Exact dedup.
  std::unordered_set<std::string> seen;
  std::vector<IndexDef> unique;
  for (IndexDef& def : candidates) {
    const std::string key = def.Key();
    if (seen.insert(key).second) unique.push_back(std::move(def));
  }
  // Leftmost-prefix merge: drop any candidate that is a strict prefix of
  // another (the wider index also serves the prefix lookups).
  std::vector<IndexDef> merged;
  for (size_t i = 0; i < unique.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < unique.size(); ++j) {
      if (i == j) continue;
      if (unique[i].IsPrefixOf(unique[j]) &&
          unique[i].columns.size() < unique[j].columns.size()) {
        dominated = true;
        break;
      }
    }
    if (!dominated) merged.push_back(unique[i]);
  }
  return merged;
}

void CandidateGenerator::EmitFromConjunction(
    const std::string& table, const std::vector<const Expr*>& atoms,
    std::vector<IndexDef>* out) const {
  const HeapTable* t = db_->catalog().GetTable(table);
  if (t == nullptr || t->num_rows() < kMinTableRows) return;

  // Partition columns into equality-bound and range-bound; estimate the
  // conjunct's selected fraction on this table.
  struct ColInfo {
    std::string column;
    bool equality;
    double selectivity;
  };
  std::vector<ColInfo> cols;
  double fraction = 1.0;
  for (const Expr* atom : atoms) {
    ColumnRef col;
    bool eq = false;
    if (!AtomColumn(*atom, &col, &eq)) continue;
    const double sel =
        db_->stats_manager().AtomSelectivity(*atom, table, table);
    fraction *= sel;
    // Skip duplicate columns (keep the more selective classification).
    bool found = false;
    for (ColInfo& c : cols) {
      if (c.column == col.column) {
        c.equality = c.equality || eq;
        c.selectivity = std::min(c.selectivity, sel);
        found = true;
        break;
      }
    }
    if (!found) cols.push_back({ToLower(col.column), eq, sel});
  }
  if (cols.empty()) return;
  // The 1/3 rule: predicates keeping more than the threshold fraction of
  // the table do not pay for an index probe.
  if (fraction > kMaxSelectedFraction) return;

  // Order: equality columns first (most selective first), then range
  // columns — the canonical composite-index column order.
  std::stable_sort(cols.begin(), cols.end(),
                   [](const ColInfo& a, const ColInfo& b) {
                     if (a.equality != b.equality) return a.equality;
                     return a.selectivity < b.selectivity;
                   });
  if (cols.size() > kMaxIndexColumns) {
    cols.resize(kMaxIndexColumns);
  }
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (const ColInfo& c : cols) names.push_back(c.column);
  out->push_back(IndexDef(table, std::move(names)));
}

void CandidateGenerator::FromWhere(const Expr* where,
                                   const std::vector<TableRef>& from,
                                   std::vector<IndexDef>* out) const {
  if (where == nullptr) return;

  // (1) Filter predicates: DNF rewrite, then per-conjunct, per-table
  // factorization (Sec. IV-A "Index Generation (1)").
  const std::vector<DnfConjunction> dnf = ToDnf(*where);
  for (const DnfConjunction& conj : dnf) {
    // Group sargable atoms by table.
    std::unordered_map<std::string, std::vector<const Expr*>> per_table;
    for (const ExprPtr& atom : conj) {
      ColumnRef col;
      bool eq = false;
      if (!AtomColumn(*atom, &col, &eq)) continue;
      const std::string table = TableOfColumn(col, from, db_->catalog());
      if (!table.empty()) per_table[table].push_back(atom.get());
    }
    for (const auto& [table, atoms] : per_table) {
      EmitFromConjunction(table, atoms, out);
    }
  }

  // (2) Join predicates: for each atomic join, index the driven table's
  // join column (Sec. IV-A "Index Generation (2)"). Which side is driven
  // depends on the final join order, so we emit a candidate for each side
  // and let benefit estimation keep the useful one.
  std::vector<DnfConjunction> dnf_for_joins = ToDnf(*where, 8);
  for (const DnfConjunction& conj : dnf_for_joins) {
    for (const ExprPtr& atom : conj) {
      ColumnRef left, right;
      if (!IsJoinAtom(*atom, &left, &right)) continue;
      const std::string lt = TableOfColumn(left, from, db_->catalog());
      const std::string rt = TableOfColumn(right, from, db_->catalog());
      if (lt.empty() || rt.empty() || lt == rt) continue;
      const HeapTable* ltab = db_->catalog().GetTable(lt);
      const HeapTable* rtab = db_->catalog().GetTable(rt);
      if (ltab != nullptr && ltab->num_rows() >= kMinTableRows) {
        out->push_back(IndexDef(lt, {left.column}));
      }
      if (rtab != nullptr && rtab->num_rows() >= kMinTableRows) {
        out->push_back(IndexDef(rt, {right.column}));
      }
    }
  }
}

void CandidateGenerator::FromSelect(const SelectStatement& stmt,
                                    std::vector<IndexDef>* out) const {
  FromWhere(stmt.where.get(), stmt.from, out);

  // (3) Other expressions: GROUP BY / ORDER BY columns (Sec. IV-A "Index
  // Generation (3)") — only when the clause "takes effect" (grouping a
  // column that is unique per row is a no-op).
  auto emit_clause_index = [&](const std::vector<ColumnRef>& cols) {
    std::unordered_map<std::string, std::vector<std::string>> per_table;
    for (const ColumnRef& col : cols) {
      const std::string table =
          TableOfColumn(col, stmt.from, db_->catalog());
      if (table.empty()) continue;
      per_table[table].push_back(ToLower(col.column));
    }
    for (auto& [table, names] : per_table) {
      const HeapTable* t = db_->catalog().GetTable(table);
      if (t == nullptr || t->num_rows() < kMinTableRows) continue;
      out->push_back(IndexDef(table, names));
    }
  };

  if (!stmt.group_by.empty()) {
    // Effective only when the grouped columns are not already distinct.
    bool effective = false;
    for (const ColumnRef& col : stmt.group_by) {
      const std::string table =
          TableOfColumn(col, stmt.from, db_->catalog());
      if (table.empty()) continue;
      const std::shared_ptr<const ColumnStats> cs =
          db_->stats_manager().GetColumnStats(table, col.column);
      const HeapTable* t = db_->catalog().GetTable(table);
      if (cs != nullptr && t != nullptr &&
          cs->num_distinct() < t->num_rows()) {
        effective = true;
      }
    }
    if (effective) emit_clause_index(stmt.group_by);
  }
  if (!stmt.order_by.empty()) {
    std::vector<ColumnRef> cols;
    cols.reserve(stmt.order_by.size());
    for (const OrderByItem& o : stmt.order_by) cols.push_back(o.column);
    emit_clause_index(cols);
  }
}

std::vector<IndexDef> CandidateGenerator::FromStatement(
    const Statement& stmt) const {
  std::vector<IndexDef> out;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      FromSelect(*stmt.select, &out);
      break;
    case StatementKind::kUpdate: {
      // Indexes speed up locating the rows to update (the paper's W3
      // example builds (name, community) to accelerate temperature
      // updates).
      std::vector<TableRef> from{TableRef(stmt.update->table)};
      FromWhere(stmt.update->where.get(), from, &out);
      break;
    }
    case StatementKind::kDelete: {
      std::vector<TableRef> from{TableRef(stmt.del->table)};
      FromWhere(stmt.del->where.get(), from, &out);
      break;
    }
    case StatementKind::kInsert:
      break;  // inserts only ever pay for indexes
  }
  return out;
}

std::vector<IndexDef> CandidateGenerator::Generate(
    const std::vector<const QueryTemplate*>& templates,
    const IndexConfig& existing) const {
  std::vector<IndexDef> all;
  for (const QueryTemplate* t : templates) {
    std::vector<IndexDef> per = FromStatement(t->representative);
    all.insert(all.end(), std::make_move_iterator(per.begin()),
               std::make_move_iterator(per.end()));
    if (all.size() > kMaxCandidates * 8) break;  // soft guard
  }
  std::vector<IndexDef> merged = MergeCandidates(std::move(all));
  // Index type selection for partitioned tables (Sec. III): each candidate
  // on a partitioned table also gets a LOCAL variant — the search decides
  // which physical kind pays off for the workload.
  std::vector<IndexDef> expanded;
  for (IndexDef& def : merged) {
    const HeapTable* t = db_->catalog().GetTable(def.table);
    if (t != nullptr && t->partitioned()) {
      IndexDef local = def;
      local.kind = IndexKind::kLocal;
      expanded.push_back(std::move(local));
    }
    expanded.push_back(std::move(def));
  }
  // Drop candidates already built.
  std::vector<IndexDef> fresh;
  for (IndexDef& def : expanded) {
    if (!existing.Contains(def)) fresh.push_back(std::move(def));
  }
  if (fresh.size() > kMaxCandidates) {
    fresh.resize(kMaxCandidates);
  }
  return fresh;
}

}  // namespace autoindex
