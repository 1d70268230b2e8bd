#include "engine/operators/join_ops.h"

#include <algorithm>
#include <bit>

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
                       std::unique_ptr<SeqScanOp> inner,
                       std::vector<std::string> join_cols,
                       std::vector<ColumnRef> join_sources)
    : JoinOpBase(ctx, tables, level, std::move(outer)),
      inner_(std::move(inner)),
      join_cols_(std::move(join_cols)),
      join_sources_(std::move(join_sources)) {
  const Schema& schema =
      ctx->catalog->GetTable(tables[level].ref.table)->schema();
  for (const std::string& c : join_cols_) {
    key_ords_.push_back(schema.FindColumn(c));
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

// Both key hashes fold HashRow's combine step over the key values in
// place, so equal keys hash equal whichever side they come from.
size_t HashJoinOp::InnerKeyHash(const Row& row) const {
  size_t h = kHashRowSeed;
  for (int ord : key_ords_) {
    h = ord >= 0 ? HashCombine(h, row[static_cast<size_t>(ord)])
                 : HashCombine(h, Value::Null());
  }
  return h;
}

size_t HashJoinOp::OuterKeyHash(const ExecTuple& t) const {
  size_t h = kHashRowSeed;
  for (const BoundValue& src : probe_) h = HashCombine(h, *src.Read(t));
  return h;
}

template <typename HashOf>
void HashJoinOp::BuildTable(size_t n, HashOf hash_of) {
  heads_.assign(std::bit_ceil(std::max<size_t>(n, 1)), kEnd);
  entries_.resize(n);
  // Back to front, each item pushed onto its chain's head: every chain
  // then lists its items in input order.
  for (size_t i = n; i-- > 0;) {
    const size_t h = hash_of(i);
    uint32_t& head = heads_[h & (heads_.size() - 1)];
    entries_[i] = {h, head};
    head = static_cast<uint32_t>(i);
  }
}

bool HashJoinOp::Start() {
  // An empty outer side never runs the inner scan.
  if (!NextOuter()) {
    outer_done_ = true;
    return false;
  }
  inner_->Drain(&inner_rows_, &inner_rids_);
  while (true) {
    outer_slots_.insert(outer_slots_.end(), tuple_.slots.begin(),
                        tuple_.slots.end() - 1);
    outer_rids_.insert(outer_rids_.end(), tuple_.rids.begin(),
                       tuple_.rids.end() - 1);
    outer_hashes_.push_back(probe_bound_ ? OuterKeyHash(tuple_) : 0);
    if (num_buffered() > inner_rows_.size()) break;
    if (!NextOuter()) {
      outer_done_ = true;
      break;
    }
  }
  // An unbound probe key matches nothing: keep pulling the outer side
  // (for its counters) against the inner table.
  if (outer_done_ && probe_bound_) {
    hashed_ = Hashed::kOuter;
    BuildTable(num_buffered(), [&](size_t j) { return outer_hashes_[j]; });
  } else {
    hashed_ = Hashed::kInner;
    BuildTable(inner_rows_.size(),
               [&](size_t i) { return InnerKeyHash(*inner_rows_[i]); });
  }
  return true;
}

bool HashJoinOp::NextHashedInner(ExecTuple* out) {
  while (true) {
    while (chain_ != kEnd) {
      const uint32_t i = chain_;
      chain_ = entries_[i].next;
      // Exact recheck: bucket mates, hash collisions, partial keys.
      if (entries_[i].hash != probe_hash_ ||
          !Place(inner_rows_[i], inner_rids_[i])) {
        continue;
      }
      Emit(out);
      return true;
    }
    if (cursor_ < num_buffered()) {
      std::copy_n(&outer_slots_[cursor_ * level_], level_,
                  tuple_.slots.begin());
      std::copy_n(&outer_rids_[cursor_ * level_], level_, tuple_.rids.begin());
      probe_hash_ = outer_hashes_[cursor_++];
    } else {
      if (outer_done_ || !NextOuter()) {
        outer_done_ = true;
        return false;
      }
      if (probe_bound_) probe_hash_ = OuterKeyHash(tuple_);
    }
    chain_ = probe_bound_ ? heads_[probe_hash_ & (heads_.size() - 1)] : kEnd;
  }
}

bool HashJoinOp::NextHashedOuter(ExecTuple* out) {
  while (true) {
    while (chain_ != kEnd) {
      const uint32_t j = chain_;
      chain_ = entries_[j].next;
      if (entries_[j].hash != probe_hash_) continue;
      std::copy_n(&outer_slots_[j * level_], level_, tuple_.slots.begin());
      std::copy_n(&outer_rids_[j * level_], level_, tuple_.rids.begin());
      if (!Place(inner_rows_[cursor_ - 1], inner_rids_[cursor_ - 1])) {
        continue;
      }
      Emit(out);
      return true;
    }
    if (cursor_ == inner_rows_.size()) return false;
    probe_hash_ = InnerKeyHash(*inner_rows_[cursor_++]);
    chain_ = heads_[probe_hash_ & (heads_.size() - 1)];
  }
}

bool HashJoinOp::DoNext(ExecTuple* out) {
  if (hashed_ == Hashed::kNotYet && (outer_done_ || !Start())) return false;
  return hashed_ == Hashed::kInner ? NextHashedInner(out)
                                   : NextHashedOuter(out);
}

std::string HashJoinOp::detail() const {
  std::vector<std::string> keys;
  for (size_t i = 0; i < join_cols_.size(); ++i) {
    keys.push_back(join_cols_[i] + " = " + join_sources_[i].ToString());
  }
  std::string s = JoinOpBase::detail() + " on " + Join(keys, ", ");
  if (hashed_ == Hashed::kInner) {
    s += StrCat(" (hashed inner, ", inner_rows_.size(), " rows)");
  } else if (hashed_ == Hashed::kOuter) {
    s += StrCat(" (hashed outer, ", num_buffered(), " rows)");
  }
  return s;
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
