#include "engine/executor.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/metrics.h"

namespace autoindex {
namespace {

// Executor observability (DESIGN.md §11): statement totals.
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

}  // namespace

std::vector<IndexStatsView> Executor::BuiltConfig(
    const std::vector<TableRef>& tables) const {
  std::vector<IndexStatsView> out;
  for (const TableRef& ref : tables) {
    for (const BuiltIndex* index : indexes_->IndexesOnTable(ref.table)) {
      IndexStatsView view;
      view.def = index->def();
      view.num_entries = index->num_entries();
      view.height = index->height();
      view.size_bytes = index->SizeBytes();
      view.partitions = index->num_trees();
      out.push_back(std::move(view));
    }
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

// Retains the statement's pipeline snapshot (shared, not copied; INSERT's
// null plan clears it) and final stats for the plan validator, and records
// the executor metrics. Every statement kind ends here.
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
  }
}

StatusOr<std::unique_ptr<PhysicalPlan>> Executor::PlanSelect(
    const SelectStatement& stmt,
    const std::vector<IndexStatsView>* config) const {
  obs::ScopedSpan plan_span("plan");
  StatusOr<SelectPlan> plan = planner_.PlanSelect(
      stmt, config == nullptr ? BuiltConfig(stmt.from) : *config);
  if (!plan.ok()) return plan.status();
  return LowerSelect(stmt, std::move(*plan), catalog_, indexes_);
}

StatusOr<std::unique_ptr<PhysicalPlan>> Executor::PlanLookup(
    const std::string& table, const Expr* where,
    const std::vector<IndexStatsView>* config) const {
  obs::ScopedSpan plan_span("plan");
  StatusOr<TablePlan> tp = planner_.PlanWriteLookup(
      table, where,
      config == nullptr ? BuiltConfig({TableRef(table)}) : *config);
  if (!tp.ok()) return tp.status();
  return LowerWriteLookup(std::move(*tp), where, catalog_, indexes_);
}

namespace {

// Runs `pp`'s tree to exhaustion, handing each tuple to `emit`, and fills
// *result's index use, plan snapshot, read-side counters and feedback.
template <typename Emit>
void RunPipeline(const PhysicalPlan& pp, bool detail, ExecResult* result,
                 Emit emit) {
  result->indexes_used = pp.indexes_used;
  result->stats.used_index = !pp.indexes_used.empty();
  pp.root->Open();
  ExecTuple t;
  while (pp.root->Next(&t)) emit(t);
  pp.root->Close();
  result->plan =
      std::make_shared<const PlanNodeSnapshot>(pp.root->Snapshot(detail));
  AccumulateOperatorCounters(*result->plan, &result->stats);
  CollectAccessPathFeedback(*pp.root, &result->feedback);
}

}  // namespace

StatusOr<ExecResult> Executor::ExecuteSelect(const SelectStatement& stmt) {
  StatusOr<std::unique_ptr<PhysicalPlan>> pp = PlanSelect(stmt, nullptr);
  if (!pp.ok()) return pp.status();
  ExecResult result;
  RunPipeline(**pp, plan_detail_, &result, [&](const ExecTuple& t) {
    result.rows.push_back(*t.slots[0]);
  });
  result.stats.rows_returned = result.rows.size();
  FinishStatement(result);
  return result;
}

StatusOr<std::vector<RowId>> Executor::LookupRows(const std::string& table,
                                                  const Expr* where,
                                                  ExecResult* result) {
  StatusOr<std::unique_ptr<PhysicalPlan>> pp =
      PlanLookup(table, where, nullptr);
  if (!pp.ok()) return pp.status();
  std::vector<RowId> out;
  RunPipeline(**pp, plan_detail_, result,
              [&](const ExecTuple& t) { out.push_back(t.rids[0]); });
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
      ++result.stats.index_entries_written;
      result.stats.maint_cpu_cost += IndexUpdateCpuCost(
          snap.index->num_entries(), snap.index->height(), 1);
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
  FinishStatement(result);
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
      ++result.stats.index_entries_written;
      result.stats.index_pages_written +=
          2 + (bi->num_splits() - splits_before);
      result.stats.maint_cpu_cost +=
          IndexUpdateCpuCost(bi->num_entries(), bi->height(), 1);
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
