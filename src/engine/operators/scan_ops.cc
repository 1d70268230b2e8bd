#include "engine/operators/scan_ops.h"

#include <functional>

namespace autoindex {

// --- SeqScanOp -----------------------------------------------------------

SeqScanOp::SeqScanOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
                     size_t level)
    : ctx_(ctx),
      tables_(tables),
      level_(level),
      table_(ctx->catalog->GetTable(tables[level].ref.table)),
      local_(ColumnBinder(*ctx->catalog, tables, level, level, level + 1)
                 .BindConditions(tables[level], /*join=*/false)) {
  candidate_.slots.assign(level + 1, nullptr);
}

void SeqScanOp::EnsureMaterialized() {
  if (materialized_done_) return;
  table_->Scan([&](RowId rid, const Row& row) {
    ++stats_.tuples_examined;
    candidate_.slots[level_] = &row;
    if (AllHold(local_, candidate_, &stats_.comparisons)) {
      materialized_.push_back(rid);
    }
  });
  stats_.heap_pages_read += static_cast<int64_t>(table_->NumPages());
  materialized_done_ = true;
}

bool SeqScanOp::DoNext(ExecTuple* out) {
  EnsureMaterialized();
  while (cursor_ < materialized_.size()) {
    const RowId rid = materialized_[cursor_++];
    if (!table_->IsLive(rid)) continue;
    out->slots.assign(1, &table_->Get(rid));
    out->rids.assign(1, rid);
    ++stats_.rows_out;
    return true;
  }
  return false;
}

std::string SeqScanOp::detail() const {
  return "on " + tables_[level_].ref.alias;
}

void SeqScanOp::AppendFeedback(const CostParams& params,
                               std::vector<AccessPathFeedback>* out) const {
  if (!materialized_done_) return;  // never executed
  AccessPathFeedback fb;
  fb.table = tables_[level_].ref.table;
  fb.est_rows = tables_[level_].access.est_rows;
  fb.actual_rows = static_cast<double>(materialized_.size());
  fb.est_cost = tables_[level_].access.est_cost;
  fb.actual_cost =
      static_cast<double>(stats_.heap_pages_read) * params.seq_page_cost +
      static_cast<double>(stats_.tuples_examined) * params.cpu_tuple_cost;
  out->push_back(std::move(fb));
}

// --- IndexScanOp ---------------------------------------------------------

IndexScanOp::IndexScanOp(ExecContext* ctx,
                         const std::vector<TablePlan>& tables, size_t level,
                         const BuiltIndex* index)
    : ctx_(ctx),
      tables_(tables),
      level_(level),
      table_(ctx->catalog->GetTable(tables[level].ref.table)),
      index_(index),
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
  if (index->is_local() && table_->partitioned()) {
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
  // Standalone use (leftmost table / write lookup): one probe, all key
  // columns bound from literals. As a join inner, the parent Rebind()s
  // per outer tuple instead and this initial probe is never issued.
  if (level_ == 0) {
    (void)Rebind(nullptr);
  }
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

void IndexScanOp::AppendFeedback(const CostParams& params,
                                 std::vector<AccessPathFeedback>* out) const {
  if (probes_ == 0) return;  // never executed
  const double probes = static_cast<double>(probes_);
  AccessPathFeedback fb;
  fb.table = tables_[level_].ref.table;
  fb.index = tables_[level_].access.index.DisplayName();
  fb.est_rows = tables_[level_].access.est_match_rows;
  fb.actual_rows = static_cast<double>(stats_.index_tuples_read) / probes;
  fb.est_cost = tables_[level_].access.est_cost;
  fb.actual_cost =
      (static_cast<double>(stats_.index_pages_read) * params.random_page_cost +
       static_cast<double>(stats_.heap_pages_read) * params.random_page_cost +
       static_cast<double>(stats_.index_tuples_read) *
           params.cpu_index_tuple_cost +
       static_cast<double>(stats_.tuples_examined) * params.cpu_tuple_cost) /
      probes;
  out->push_back(std::move(fb));
}

}  // namespace autoindex
