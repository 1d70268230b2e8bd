#include "engine/executor.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// Executor observability (DESIGN.md §11): statement totals plus a
// per-operator-type breakdown walked off the plan snapshot each
// statement leaves behind.
struct ExecutorMetrics {
  util::Counter* statements;
  util::Counter* rows_returned;
  util::Counter* heap_pages_read;
  util::Counter* index_pages_read;
  util::Counter* tuples_examined;
  util::Counter* index_tuples_read;

  static const ExecutorMetrics& Get() {
    static const ExecutorMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return ExecutorMetrics{
          registry.GetCounter("executor.statements"),
          registry.GetCounter("executor.rows_returned"),
          registry.GetCounter("executor.heap_pages_read"),
          registry.GetCounter("executor.index_pages_read"),
          registry.GetCounter("executor.tuples_examined"),
          registry.GetCounter("executor.index_tuples_read")};
    }();
    return metrics;
  }
};

uint64_t NonNegative(int64_t v) {
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

// Per-operator-type series: executor.op.<name>.{invocations,rows_out,
// pages_read}. Operator names are a small closed set, so each thread
// resolves a name's handles on its first statement of that shape and
// reuses them: no string building or registry mutex per plan node.
struct OperatorSeries {
  util::Counter* invocations;
  util::Counter* rows_out;
  util::Counter* pages_read;
};

const OperatorSeries& SeriesFor(const std::string& op) {
  thread_local std::unordered_map<std::string, OperatorSeries> cache;
  auto it = cache.find(op);
  if (it == cache.end()) {
    auto& registry = util::MetricsRegistry::Default();
    const std::string base = StrCat("executor.op.", ToLower(op), ".");
    it = cache
             .emplace(op, OperatorSeries{
                              registry.GetCounter(base + "invocations"),
                              registry.GetCounter(base + "rows_out"),
                              registry.GetCounter(base + "pages_read")})
             .first;
  }
  return it->second;
}

void RecordOperatorMetrics(const PlanNodeSnapshot& node) {
  const OperatorSeries& series = SeriesFor(node.op);
  series.invocations->Add();
  series.rows_out->Add(NonNegative(node.actual.rows_out));
  series.pages_read->Add(NonNegative(node.actual.heap_pages_read) +
                         NonNegative(node.actual.index_pages_read));
  for (const PlanNodeSnapshot& child : node.children) {
    RecordOperatorMetrics(child);
  }
}

}  // namespace

std::vector<IndexStatsView> Executor::BuiltConfig(
    const std::string& table) const {
  std::vector<IndexStatsView> out;
  for (const BuiltIndex* index : indexes_->IndexesOnTable(table)) {
    IndexStatsView view;
    view.def = index->def();
    view.num_entries = index->num_entries();
    view.height = index->height();
    view.size_bytes = index->SizeBytes();
    view.partitions = index->num_trees();
    out.push_back(std::move(view));
  }
  return out;
}

StatusOr<ExecResult> Executor::Execute(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del);
  }
  return Status::Internal("unknown statement kind");
}

// Retains the statement's pipeline snapshot (shared, not copied) and final
// stats for the plan validator, then forwards the collected feedback to the
// installed hook.
void Executor::FinishStatement(const ExecResult& result) {
  last_plan_ = result.plan;
  last_plan_stats_ = result.stats;
  if constexpr (util::kMetricsEnabled) {
    const ExecutorMetrics& metrics = ExecutorMetrics::Get();
    metrics.statements->Add();
    metrics.rows_returned->Add(result.stats.rows_returned);
    metrics.heap_pages_read->Add(result.stats.heap_pages_read);
    metrics.index_pages_read->Add(result.stats.index_pages_read);
    metrics.tuples_examined->Add(result.stats.tuples_examined);
    metrics.index_tuples_read->Add(result.stats.index_tuples_read);
    if (result.plan != nullptr) RecordOperatorMetrics(*result.plan);
  }
  if (feedback_hook_ && !result.feedback.empty()) {
    feedback_hook_(result.feedback);
  }
}

StatusOr<ExecResult> Executor::ExecuteSelect(const SelectStatement& stmt) {
  // Plan against the real (built) indexes of every referenced table.
  std::vector<IndexStatsView> config;
  for (const TableRef& ref : stmt.from) {
    std::vector<IndexStatsView> per = BuiltConfig(ref.table);
    config.insert(config.end(), per.begin(), per.end());
  }
  std::unique_ptr<PhysicalPlan> pplan;
  {
    obs::ScopedSpan plan_span("plan");
    StatusOr<SelectPlan> plan_or = planner_.PlanSelect(stmt, config);
    if (!plan_or.ok()) return plan_or.status();
    pplan = LowerSelect(stmt, std::move(*plan_or), catalog_, indexes_,
                        params_);
  }

  ExecResult result;
  result.indexes_used = pplan->indexes_used;
  result.stats.used_index = pplan->used_index;

  pplan->root->Open();
  ExecTuple t;
  while (pplan->root->Next(&t)) {
    result.rows.push_back(*t.slots[0]);
  }
  pplan->root->Close();

  result.plan = std::make_shared<const PlanNodeSnapshot>(
      pplan->root->Snapshot(plan_detail_));
  AccumulateOperatorCounters(*result.plan, &result.stats);
  result.stats.rows_returned = result.rows.size();
  CollectAccessPathFeedback(*pplan->root, params_, &result.feedback);
  FinishStatement(result);
  return result;
}

StatusOr<std::vector<RowId>> Executor::LookupRows(const std::string& table,
                                                  const Expr* where,
                                                  ExecResult* result) {
  HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  std::unique_ptr<PhysicalPlan> pplan;
  {
    obs::ScopedSpan plan_span("plan");
    StatusOr<TablePlan> tp_or =
        planner_.PlanWriteLookup(table, where, BuiltConfig(table));
    if (!tp_or.ok()) return tp_or.status();
    pplan = LowerWriteLookup(std::move(*tp_or), where, catalog_, indexes_,
                             params_);
  }
  result->indexes_used = pplan->indexes_used;
  result->stats.used_index = pplan->used_index;

  std::vector<RowId> out;
  pplan->root->Open();
  ExecTuple tup;
  while (pplan->root->Next(&tup)) {
    out.push_back(tup.rids[0]);
  }
  pplan->root->Close();

  result->plan = std::make_shared<const PlanNodeSnapshot>(
      pplan->root->Snapshot(plan_detail_));
  AccumulateOperatorCounters(*result->plan, &result->stats);
  CollectAccessPathFeedback(*pplan->root, params_, &result->feedback);
  return out;
}

StatusOr<ExecResult> Executor::ExecuteInsert(const InsertStatement& stmt) {
  HeapTable* t = catalog_->GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt.table);
  ExecResult result;
  const Schema& schema = t->schema();

  // Pre-capture per-index stats for the maintenance formulas.
  struct IndexSnapshot {
    BuiltIndex* index;
    size_t splits_before;
  };
  // Write-visible = ready + in-flight builds: an online build must see
  // every mutation (buffered into its side delta) or the published index
  // would miss rows.
  std::vector<IndexSnapshot> snaps;
  for (BuiltIndex* bi : indexes_->WriteVisibleOnTable(stmt.table)) {
    snaps.push_back({bi, bi->num_splits()});
  }

  size_t inserted = 0;
  for (const Row& src : stmt.rows) {
    Row row;
    if (stmt.columns.empty()) {
      row = src;
    } else {
      if (src.size() != stmt.columns.size()) {
        return Status::InvalidArgument("VALUES arity mismatch");
      }
      row.assign(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < stmt.columns.size(); ++i) {
        const int ord = schema.FindColumn(stmt.columns[i]);
        if (ord < 0) {
          return Status::NotFound("no column " + stmt.columns[i] + " in " +
                                  stmt.table);
        }
        row[static_cast<size_t>(ord)] = src[i];
      }
    }
    StatusOr<RowId> rid = t->Insert(std::move(row));
    if (!rid.ok()) return rid.status();
    // Index maintenance: inserts update indexes immediately (Sec. V).
    for (IndexSnapshot& snap : snaps) {
      snap.index->InsertEntry(t->Get(*rid), *rid);
      snap.index->RecordMaintenance();
      ++result.stats.index_entries_written;
      result.stats.maint_cpu_cost += IndexUpdateCpuCost(
          snap.index->num_entries(), snap.index->height(), 1, params_);
    }
    ++inserted;
  }
  // Heap pages dirtied (append-only): number of pages the new rows span.
  result.stats.pages_written +=
      std::max<size_t>(1, (inserted + t->RowsPerPage() - 1) /
                              std::max<size_t>(1, t->RowsPerPage()));
  // Index page writes: one leaf write per entry plus structural splits.
  for (IndexSnapshot& snap : snaps) {
    const size_t splits = snap.index->num_splits() - snap.splits_before;
    result.stats.index_pages_written += inserted + splits;
  }
  result.stats.rows_returned = inserted;
  // No read pipeline ran; clear the retained snapshot so the validator
  // does not check a stale plan against this statement's stats.
  last_plan_.reset();
  last_plan_stats_ = result.stats;
  return result;
}

StatusOr<ExecResult> Executor::ExecuteUpdate(const UpdateStatement& stmt) {
  HeapTable* t = catalog_->GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt.table);
  ExecResult result;
  StatusOr<std::vector<RowId>> rids =
      LookupRows(stmt.table, stmt.where.get(), &result);
  if (!rids.ok()) return rids.status();

  const Schema& schema = t->schema();
  std::vector<std::pair<int, Value>> sets;
  for (const auto& [col, val] : stmt.assignments) {
    const int ord = schema.FindColumn(col);
    if (ord < 0) {
      return Status::NotFound("no column " + col + " in " + stmt.table);
    }
    sets.emplace_back(ord, val);
  }

  for (RowId rid : *rids) {
    const Row old_row = t->Get(rid);
    Row new_row = old_row;
    for (const auto& [ord, val] : sets) {
      new_row[static_cast<size_t>(ord)] = val;
    }
    Status s = t->Update(rid, new_row);
    if (!s.ok()) return s;
    // Updates refresh affected indexes immediately (Sec. V): only indexes
    // whose key (or, for local indexes, shard) actually changed pay the
    // maintenance cost. Write-visible so in-flight builds see the change.
    for (BuiltIndex* bi : indexes_->WriteVisibleOnTable(stmt.table)) {
      const Row old_key = bi->KeyFromRow(old_row);
      const Row new_key = bi->KeyFromRow(new_row);
      const bool shard_moved =
          bi->is_local() &&
          t->PartitionOfRow(old_row) != t->PartitionOfRow(new_row);
      if (CompareRows(old_key, new_key) == 0 && !shard_moved) continue;
      const size_t splits_before = bi->num_splits();
      bi->DeleteEntry(old_row, rid);
      bi->InsertEntry(new_row, rid);
      bi->RecordMaintenance();
      ++result.stats.index_entries_written;
      result.stats.index_pages_written +=
          2 + (bi->num_splits() - splits_before);
      result.stats.maint_cpu_cost += IndexUpdateCpuCost(
          bi->num_entries(), bi->height(), 1, params_);
    }
  }
  result.stats.pages_written += std::min<size_t>(
      rids->size(), std::max<size_t>(1, t->NumPages()));
  if (rids->empty()) result.stats.pages_written = 0;
  result.stats.rows_returned = rids->size();
  FinishStatement(result);
  return result;
}

StatusOr<ExecResult> Executor::ExecuteDelete(const DeleteStatement& stmt) {
  HeapTable* t = catalog_->GetTable(stmt.table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt.table);
  ExecResult result;
  StatusOr<std::vector<RowId>> rids =
      LookupRows(stmt.table, stmt.where.get(), &result);
  if (!rids.ok()) return rids.status();

  for (RowId rid : *rids) {
    const Row old_row = t->Get(rid);
    Status s = t->Delete(rid);
    if (!s.ok()) return s;
    // Deletes defer index maintenance (Sec. V: "deletes update the index
    // after finishing the query, whose index update cost is 0"). We still
    // remove the entries to keep indexes consistent, but charge no
    // maintenance CPU/IO to the query. Write-visible so in-flight builds
    // see the delete.
    for (BuiltIndex* bi : indexes_->WriteVisibleOnTable(stmt.table)) {
      bi->DeleteEntry(old_row, rid);
    }
  }
  result.stats.pages_written +=
      rids->empty() ? 0
                    : std::min<size_t>(rids->size(),
                                       std::max<size_t>(1, t->NumPages()));
  result.stats.rows_returned = rids->size();
  FinishStatement(result);
  return result;
}

}  // namespace autoindex
