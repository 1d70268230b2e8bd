#include "engine/operators/join_ops.h"

#include "util/string_util.h"

namespace autoindex {

// --- IndexNestedLoopJoinOp -----------------------------------------------

bool IndexNestedLoopJoinOp::DoNext(ExecTuple* out) {
  while (true) {
    if (!inner_active_) {
      if (!NextOuter()) return false;
      // Lowering only picks this operator when every key column binds
      // statically; an unbindable probe degrades to zero inner matches.
      (void)inner_->Rebind(&tuple_);
      inner_active_ = true;
    }
    if (!inner_->Next(&inner_tuple_)) {
      inner_active_ = false;
      continue;
    }
    // The inner scan already checked the join conditions.
    tuple_.slots.back() = inner_tuple_.slots[0];
    tuple_.rids.back() = inner_tuple_.rids[0];
    Emit(out);
    return true;
  }
}

// --- HashJoinOp ----------------------------------------------------------

HashJoinOp::HashJoinOp(ExecContext* ctx,
                       const std::vector<TablePlan>& tables, size_t level,
                       std::unique_ptr<PhysicalOperator> outer,
                       std::unique_ptr<SeqScanOp> build,
                       std::vector<std::string> join_cols,
                       std::vector<ColumnRef> join_sources)
    : JoinOpBase(ctx, tables, level, std::move(outer)),
      build_(std::move(build)),
      join_cols_(std::move(join_cols)),
      join_sources_(std::move(join_sources)),
      table_(ctx->catalog->GetTable(tables[level].ref.table)) {
  for (const std::string& c : join_cols_) {
    key_ords_.push_back(table_->schema().FindColumn(c));
  }
  // Probe keys read the outer slots only. An unbound key (e.g. a name
  // shadowed by this table) is the same for every outer tuple: the join
  // then yields no rows.
  const ColumnBinder outer_view(*ctx->catalog, tables, level, 0, level);
  for (const ColumnRef& src : join_sources_) {
    probe_.push_back(outer_view.Bind(src));
    probe_bound_ = probe_bound_ && probe_.back().bound();
  }
}

void HashJoinOp::BuildHashTable() {
  // Drain the build-side scan: it filters by the local conditions and
  // pays the scan counters (tuples examined, heap pages) exactly once.
  ExecTuple t;
  while (build_->Next(&t)) {
    key_.clear();
    for (int ord : key_ords_) {
      key_.push_back(ord >= 0 ? (*t.slots[0])[static_cast<size_t>(ord)]
                              : Value::Null());
    }
    hash_[HashRow(key_)].push_back(t.rids[0]);
  }
  built_ = true;
}

bool HashJoinOp::DoNext(ExecTuple* out) {
  while (true) {
    if (!inner_active_) {
      if (!NextOuter()) return false;
      if (!built_) BuildHashTable();
      matches_ = nullptr;
      if (probe_bound_) {
        key_.clear();
        for (const BoundValue& src : probe_) key_.push_back(*src.Read(tuple_));
        auto it = hash_.find(HashRow(key_));
        if (it != hash_.end()) matches_ = &it->second;
      }
      match_cursor_ = 0;
      inner_active_ = true;
    }
    while (matches_ != nullptr && match_cursor_ < matches_->size()) {
      const RowId rid = (*matches_)[match_cursor_++];
      if (!table_->IsLive(rid)) continue;
      // Exact recheck: hash collisions / partial-key matches.
      if (!Place(&table_->Get(rid), rid)) continue;
      Emit(out);
      return true;
    }
    inner_active_ = false;
  }
}

std::string HashJoinOp::detail() const {
  std::vector<std::string> keys;
  for (size_t i = 0; i < join_cols_.size(); ++i) {
    keys.push_back(join_cols_[i] + " = " + join_sources_[i].ToString());
  }
  return JoinOpBase::detail() + " on " + Join(keys, ", ");
}

// --- NestedLoopJoinOp ----------------------------------------------------

bool NestedLoopJoinOp::DoNext(ExecTuple* out) {
  while (true) {
    if (!inner_active_) {
      if (!NextOuter()) return false;
      inner_->Rewind();
      inner_active_ = true;
    }
    if (!inner_->Next(&inner_tuple_)) {
      inner_active_ = false;
      continue;
    }
    if (!Place(inner_tuple_.slots[0], inner_tuple_.rids[0])) continue;
    Emit(out);
    return true;
  }
}

}  // namespace autoindex
