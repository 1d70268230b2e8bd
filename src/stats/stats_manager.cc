#include "stats/stats_manager.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {

namespace {

struct AnalyzeMetrics {
  util::Counter* tables_built;
  util::Counter* tables_skipped;

  static const AnalyzeMetrics& Get() {
    static const AnalyzeMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return AnalyzeMetrics{
          registry.GetCounter("stats.analyze.tables_built"),
          registry.GetCounter("stats.analyze.tables_skipped")};
    }();
    return metrics;
  }
};

}  // namespace

void StatsManager::Analyze(const std::string& table) {
  const HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return;
  // Scan under a shared latch (no-op when the calling statement already
  // holds this table), then publish the snapshot under the cache mutex.
  // Writers bump the modification count under the exclusive latch, so it
  // is stable while the shared one is held.
  LatchManager::Guard guard;
  if (latches_ != nullptr) guard = latches_->AcquireShared({table});
  const std::string key = ToLower(table);
  const uint64_t modifications = t->modifications();
  {
    util::MutexLock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.table_id == t->id() &&
        it->second.modifications == modifications) {
      AnalyzeMetrics::Get().tables_skipped->Add();
      return;
    }
  }
  TableStats built{t->id(), modifications, {}};
  std::vector<ColumnStats> columns = ColumnStats::BuildTable(*t);
  for (size_t i = 0; i < columns.size(); ++i) {
    built.columns[t->schema().column(i).name] =
        std::make_shared<const ColumnStats>(std::move(columns[i]));
  }
  guard.Release();
  AnalyzeMetrics::Get().tables_built->Add();
  util::MutexLock lock(mu_);
  cache_[key] = std::move(built);
}

void StatsManager::AnalyzeAll() {
  for (const std::string& name : catalog_->TableNames()) Analyze(name);
}

void StatsManager::Invalidate(const std::string& table) {
  util::MutexLock lock(mu_);
  cache_.erase(ToLower(table));
}

std::shared_ptr<const ColumnStats> StatsManager::GetColumnStats(
    const std::string& table, const std::string& column) {
  const std::string tkey = ToLower(table);
  {
    util::MutexLock lock(mu_);
    auto it = cache_.find(tkey);
    if (it != cache_.end()) {
      auto cit = it->second.columns.find(ToLower(column));
      return cit == it->second.columns.end() ? nullptr : cit->second;
    }
  }
  Analyze(table);
  util::MutexLock lock(mu_);
  auto it = cache_.find(tkey);
  if (it == cache_.end()) return nullptr;
  auto cit = it->second.columns.find(ToLower(column));
  return cit == it->second.columns.end() ? nullptr : cit->second;
}

namespace {

// True when the column reference plausibly targets `table` (either
// unqualified, or qualified with the table name or its alias).
bool RefTargetsTable(const ColumnRef& col, const std::string& table,
                     const std::string& alias) {
  if (col.table.empty()) return true;
  return col.table == table || (!alias.empty() && col.table == alias);
}

// Extracts the (column, literal) shape of a comparison atom, swapping
// operands when the literal is on the left. Returns false for
// column-column comparisons (join predicates).
bool NormalizeComparison(const Expr& atom, ColumnRef* col, CompareOp* op,
                         Value* lit) {
  const Expr& lhs = *atom.children[0];
  const Expr& rhs = *atom.children[1];
  if (lhs.kind == ExprKind::kColumn && rhs.kind == ExprKind::kLiteral) {
    *col = lhs.column;
    *op = atom.op;
    *lit = rhs.literal;
    return true;
  }
  if (lhs.kind == ExprKind::kLiteral && rhs.kind == ExprKind::kColumn) {
    *col = rhs.column;
    *op = SwapCompareOp(atom.op);
    *lit = lhs.literal;
    return true;
  }
  return false;
}

}  // namespace

double StatsManager::AtomSelectivity(const Expr& atom,
                                     const std::string& table,
                                     const std::string& alias) {
  switch (atom.kind) {
    case ExprKind::kCompare: {
      ColumnRef col;
      CompareOp op;
      Value lit;
      if (!NormalizeComparison(atom, &col, &op, &lit)) {
        // Join predicate or literal-literal: neutral for a single table.
        return 1.0;
      }
      if (!RefTargetsTable(col, ToLower(table), alias)) return 1.0;
      const std::shared_ptr<const ColumnStats> stats =
          GetColumnStats(table, col.column);
      if (stats == nullptr) return 1.0;
      return stats->Selectivity(op, lit);
    }
    case ExprKind::kBetween: {
      if (atom.children[0]->kind != ExprKind::kColumn) return 0.33;
      const ColumnRef& col = atom.children[0]->column;
      if (!RefTargetsTable(col, ToLower(table), alias)) return 1.0;
      const std::shared_ptr<const ColumnStats> stats =
          GetColumnStats(table, col.column);
      if (stats == nullptr) return 0.33;
      return stats->RangeSelectivity(atom.children[1]->literal,
                                     atom.children[2]->literal);
    }
    case ExprKind::kInList: {
      if (atom.children[0]->kind != ExprKind::kColumn) return 0.33;
      const ColumnRef& col = atom.children[0]->column;
      if (!RefTargetsTable(col, ToLower(table), alias)) return 1.0;
      const std::shared_ptr<const ColumnStats> stats =
          GetColumnStats(table, col.column);
      if (stats == nullptr) return 0.33;
      const double sel = stats->InListSelectivity(atom.in_list);
      return atom.negated ? std::max(0.0, 1.0 - sel) : sel;
    }
    case ExprKind::kIsNull: {
      if (atom.children[0]->kind != ExprKind::kColumn) return 0.1;
      const ColumnRef& col = atom.children[0]->column;
      if (!RefTargetsTable(col, ToLower(table), alias)) return 1.0;
      const std::shared_ptr<const ColumnStats> stats =
          GetColumnStats(table, col.column);
      if (stats == nullptr) return 0.1;
      const double null_frac =
          stats->num_rows() == 0
              ? 0.0
              : static_cast<double>(stats->num_nulls()) / stats->num_rows();
      return atom.negated ? 1.0 - null_frac : null_frac;
    }
    default:
      return 0.33;
  }
}

double StatsManager::EstimateSelectivity(const Expr& expr,
                                         const std::string& table,
                                         const std::string& alias) {
  switch (expr.kind) {
    case ExprKind::kAnd: {
      double sel = 1.0;
      for (const ExprPtr& c : expr.children) {
        sel *= EstimateSelectivity(*c, table, alias);
      }
      return sel;
    }
    case ExprKind::kOr: {
      // Inclusion-exclusion under independence, folded pairwise.
      double sel = 0.0;
      for (const ExprPtr& c : expr.children) {
        const double s = EstimateSelectivity(*c, table, alias);
        sel = sel + s - sel * s;
      }
      return sel;
    }
    case ExprKind::kNot:
      return std::clamp(
          1.0 - EstimateSelectivity(*expr.children[0], table, alias), 0.0,
          1.0);
    default:
      return AtomSelectivity(expr, table, alias);
  }
}

}  // namespace autoindex
