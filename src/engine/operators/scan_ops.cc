#include "engine/operators/scan_ops.h"

#include <functional>

namespace autoindex {

// --- SeqScanOp -----------------------------------------------------------

SeqScanOp::SeqScanOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
                     size_t level)
    : tables_(tables),
      level_(level),
      table_(ctx->catalog->GetTable(tables[level].ref.table)),
      local_(ColumnBinder(*ctx->catalog, tables, level, level, level + 1)
                 .BindConditions(tables[level], /*join=*/false)) {
  candidate_.slots.assign(level + 1, nullptr);
}

const Row* SeqScanOp::NextMatch(RowId* rid) {
  started_ = true;
  // The cursor and counter live in locals through the loop: predicate
  // calls would otherwise force them through memory on every row.
  const RowId end = table_->num_slots();
  RowId slot = next_slot_;
  int64_t examined = 0;
  const Row* match = nullptr;
  for (; slot < end; ++slot) {
    if (!table_->IsLive(slot)) continue;
    const Row& row = table_->Get(slot);
    ++examined;
    if (!local_.empty()) {
      candidate_.slots[level_] = &row;
      if (!AllHold(local_, candidate_, &stats_.comparisons)) continue;
    }
    match = &row;
    break;
  }
  stats_.tuples_examined += examined;
  if (match == nullptr) {
    next_slot_ = end;
    stats_.heap_pages_read = static_cast<int64_t>(table_->NumPages());
    return nullptr;
  }
  next_slot_ = slot + 1;
  if (slot >= counted_pages_end_) {
    const size_t pages = table_->PageOfRow(slot) + 1;
    stats_.heap_pages_read = static_cast<int64_t>(pages);
    counted_pages_end_ = pages * table_->RowsPerPage();
  }
  *rid = slot;
  return match;
}

bool SeqScanOp::DoNext(ExecTuple* out) {
  RowId rid;
  const Row* row = NextMatch(&rid);
  if (row == nullptr) return false;
  out->slots.assign(1, row);
  out->rids.assign(1, rid);
  ++stats_.rows_out;
  return true;
}

void SeqScanOp::Drain(std::vector<const Row*>* rows,
                      std::vector<RowId>* rids) {
  RowId rid;
  while (const Row* row = NextMatch(&rid)) {
    rows->push_back(row);
    rids->push_back(rid);
    ++stats_.rows_out;
  }
}

std::string SeqScanOp::detail() const {
  return "on " + tables_[level_].ref.alias;
}

void SeqScanOp::AppendFeedback(std::vector<AccessPathFeedback>* out) const {
  if (!started_) return;  // never executed
  AccessPathFeedback fb;
  fb.table = tables_[level_].ref.table;
  fb.est_rows = est_rows_;
  fb.actual_rows = static_cast<double>(stats_.rows_out);
  fb.est_cost = est_cost_;
  fb.actual_cost =
      static_cast<double>(stats_.heap_pages_read) * kSeqPageCost +
      static_cast<double>(stats_.tuples_examined) * kCpuTupleCost;
  out->push_back(std::move(fb));
}

// --- IndexScanOp ---------------------------------------------------------

IndexScanOp::IndexScanOp(ExecContext* ctx,
                         const std::vector<TablePlan>& tables, size_t level)
    : ctx_(ctx),
      tables_(tables),
      level_(level),
      table_(ctx->catalog->GetTable(tables[level].ref.table)),
      page_salt_(std::hash<std::string>()(table_->name()) << 1) {
  const TablePlan& tp = tables[level];
  // Key and partition sources read the outer tuple only, so a join source
  // shadowed by this table itself is unbound. Equality conditions are
  // tried in extraction order; the first one with a source wins.
  const ColumnBinder outer_view(*ctx->catalog, tables, level, 0, level);
  auto eq_source = [&](const std::string& column) {
    for (const ColumnCondition& c : tp.conditions) {
      if (c.column != column || c.kind != ColumnCondition::kEq) continue;
      if (!c.join_source.has_value()) return BoundValue{&c.literal};
      const BoundValue v = outer_view.Bind(*c.join_source);
      if (v.bound()) return v;
    }
    return BoundValue{};
  };
  for (size_t k = 0; k < tp.access.eq_prefix_len; ++k) {
    key_.push_back(eq_source(tp.access.index.columns[k]));
    key_bound_ = key_bound_ && key_.back().bound();
  }
  if (tp.access.has_range &&
      tp.access.eq_prefix_len < tp.access.index.columns.size()) {
    const std::string& rcol = tp.access.index.columns[tp.access.eq_prefix_len];
    for (const ColumnCondition& c : tp.conditions) {
      if (c.column != rcol) continue;
      if (c.kind == ColumnCondition::kRangeLo && range_lo_ == nullptr) {
        range_lo_ = &c;
      } else if (c.kind == ColumnCondition::kRangeHi && range_hi_ == nullptr) {
        range_hi_ = &c;
      }
    }
  }
  if (tp.access.index.kind == IndexKind::kLocal && table_->partitioned()) {
    partition_ = eq_source(
        table_->schema()
            .column(static_cast<size_t>(table_->partition_column()))
            .name);
  }
  const ColumnBinder binder(*ctx->catalog, tables, level);
  conditions_ = binder.BindConditions(tp, /*join=*/false);
  for (BoundPredicate& p : binder.BindConditions(tp, /*join=*/true)) {
    conditions_.push_back(std::move(p));
  }
}

void IndexScanOp::DoOpen() {
  // The statement holds its tables' latches from planning until Close, so
  // the built index is the one the planner saw.
  const IndexDef& def = tables_[level_].access.index;
  for (BuiltIndex* bi : ctx_->indexes->IndexesOnTable(def.table)) {
    if (bi->def() == def) {
      bi->RecordUse();
      index_ = bi;
    }
  }
  if (index_ == nullptr) CheckOk(Status::Internal("unbuilt " + def.Key()));
  // Standalone use (leftmost table / write lookup): one probe, all key
  // columns bound from literals. As a join inner, the parent Rebind()s
  // per outer tuple instead and this initial probe is never issued.
  if (level_ == 0) (void)Rebind(nullptr);
}

bool IndexScanOp::Rebind(const ExecTuple* outer) {
  static const ExecTuple kNoOuter;
  const ExecTuple& o = outer != nullptr ? *outer : kNoOuter;
  rids_.clear();
  cursor_ = 0;
  if (!key_bound_) return false;
  candidate_.slots.assign(o.slots.begin(),
                          o.slots.begin() + static_cast<ptrdiff_t>(level_));
  candidate_.slots.push_back(nullptr);

  lo_.clear();
  for (const BoundValue& k : key_) lo_.push_back(*k.Read(o));
  hi_ = lo_;
  bool lo_inc = true, hi_inc = true;
  if (range_lo_ != nullptr) {
    lo_.push_back(range_lo_->literal);
    lo_inc = range_lo_->inclusive;
  }
  if (range_hi_ != nullptr) {
    hi_.push_back(range_hi_->literal);
    hi_inc = range_hi_->inclusive;
  }

  size_t index_pages = 0;
  index_->Scan(partition_.Read(o),
               lo_.empty() ? nullptr : &lo_, lo_inc,
               hi_.empty() ? nullptr : &hi_, hi_inc,
               [&](const Row&, RowId rid) {
                 rids_.push_back(rid);
                 return true;
               },
               &index_pages);
  stats_.index_pages_read += static_cast<int64_t>(index_pages);
  stats_.index_tuples_read += static_cast<int64_t>(rids_.size());
  ++probes_;
  return true;
}

bool IndexScanOp::DoNext(ExecTuple* out) {
  while (cursor_ < rids_.size()) {
    const RowId rid = rids_[cursor_++];
    if (!table_->IsLive(rid)) continue;
    if (ctx_->probed_heap_pages.insert(table_->PageOfRow(rid) ^ page_salt_)
            .second) {
      ++stats_.heap_pages_read;
    }
    const Row& row = table_->Get(rid);
    ++stats_.tuples_examined;
    candidate_.slots.back() = &row;
    if (!AllHold(conditions_, candidate_, &stats_.comparisons)) continue;
    out->slots.assign(1, &row);
    out->rids.assign(1, rid);
    ++stats_.rows_out;
    return true;
  }
  return false;
}

std::string IndexScanOp::detail() const {
  const TablePlan& tp = tables_[level_];
  std::string out = "on " + tp.ref.alias + " via " +
                    tp.access.index.DisplayName();
  if (tp.access.eq_prefix_len > 0 || tp.access.has_range) {
    out += " (eq prefix " + std::to_string(tp.access.eq_prefix_len);
    if (tp.access.has_range) out += ", range";
    out += ")";
  }
  return out;
}

void IndexScanOp::AppendFeedback(std::vector<AccessPathFeedback>* out) const {
  if (probes_ == 0) return;  // never executed
  const double probes = static_cast<double>(probes_);
  AccessPathFeedback fb;
  fb.table = tables_[level_].ref.table;
  fb.index = index_->def().DisplayName();
  fb.est_rows = est_rows_;
  fb.actual_rows = static_cast<double>(stats_.rows_out) / probes;
  fb.est_cost = est_cost_;
  fb.actual_cost =
      (static_cast<double>(stats_.index_pages_read) * kRandomPageCost +
       static_cast<double>(stats_.heap_pages_read) * kRandomPageCost +
       static_cast<double>(stats_.index_tuples_read) * kCpuIndexTupleCost +
       static_cast<double>(stats_.tuples_examined) * kCpuTupleCost) /
      probes;
  out->push_back(std::move(fb));
}

}  // namespace autoindex
