#include "engine/operators/pipeline_ops.h"

#include <algorithm>
#include <unordered_map>

#include "util/string_util.h"

namespace autoindex {
namespace {

// Aggregate accumulator for one group.
struct AggState {
  size_t count = 0;
  std::vector<double> sums;
  std::vector<Value> mins;
  std::vector<Value> maxs;
  std::vector<size_t> non_null;  // per aggregate item
  // Item saw a non-numeric (string) input: SUM/AVG over it yield NULL
  // instead of silently treating the strings as 0.
  std::vector<bool> non_numeric;
};

struct GroupKeyHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct GroupKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) == 0;
  }
};

}  // namespace

// --- FilterOp ------------------------------------------------------------

bool FilterOp::DoNext(ExecTuple* out) {
  while (child_->Next(out)) {
    ++stats_.rows_in;
    ++stats_.comparisons;
    if (!predicate_.Eval(*out)) continue;
    ++stats_.rows_out;
    return true;
  }
  return false;
}

std::string FilterOp::detail() const {
  std::string s = predicate_.expr->ToString();
  if (s.size() > 60) s = s.substr(0, 57) + "...";
  return s;
}

// --- ProjectOp -----------------------------------------------------------

bool ProjectOp::DoNext(ExecTuple* out) {
  if (!child_->Next(&in_)) return false;
  ++stats_.rows_in;
  row_.clear();
  for (size_t i = 0; i < items_->size(); ++i) {
    if ((*items_)[i].star) {
      for (const Row* slot : in_.slots) {
        row_.insert(row_.end(), slot->begin(), slot->end());
      }
    } else {
      row_.push_back(cols_[i].ReadOrNull(in_));
    }
  }
  out->slots.assign(1, &row_);
  out->rids.assign(1, kInvalidRowId);
  ++stats_.rows_out;
  return true;
}

std::string ProjectOp::detail() const {
  std::vector<std::string> parts;
  for (const SelectItem& item : *items_) parts.push_back(item.ToString());
  return Join(parts, ", ");
}

// --- SortOp --------------------------------------------------------------

void SortOp::EnsureSorted() {
  if (sorted_) return;
  ExecTuple t;
  while (child_->Next(&t)) {
    ++stats_.rows_in;
    buffer_.push_back(std::move(t));
  }
  if (mode_ == Mode::kTupleKeys) {
    stats_.sort_rows += static_cast<int64_t>(buffer_.size());
  }
  // Read each tuple's sort key once, then sort an index permutation.
  const size_t width = keys_.size();
  std::vector<const Value*> keys(buffer_.size() * width);
  for (size_t i = 0; i < buffer_.size(); ++i) {
    for (size_t j = 0; j < width; ++j) {
      keys[i * width + j] = &keys_[j].value.ReadOrNull(buffer_[i]);
    }
  }
  std::vector<size_t> order(buffer_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t j = 0; j < width; ++j) {
      ++stats_.comparisons;
      const int c = keys[a * width + j]->Compare(*keys[b * width + j]);
      if (c != 0) return keys_[j].desc ? c > 0 : c < 0;
    }
    return false;
  });
  std::vector<ExecTuple> sorted;
  sorted.reserve(buffer_.size());
  for (size_t idx : order) sorted.push_back(std::move(buffer_[idx]));
  buffer_ = std::move(sorted);
  sorted_ = true;
}

bool SortOp::DoNext(ExecTuple* out) {
  EnsureSorted();
  if (cursor_ >= buffer_.size()) return false;
  *out = std::move(buffer_[cursor_++]);
  ++stats_.rows_out;
  return true;
}

std::string SortOp::detail() const {
  std::vector<std::string> keys;
  for (size_t j = 0; j < keys_.size(); ++j) {
    keys.push_back((mode_ == Mode::kTupleKeys
                        ? (*order_by_)[j].column.ToString()
                        : "slot " + std::to_string(keys_[j].value.ord)) +
                   (keys_[j].desc ? " desc" : ""));
  }
  return "by " + Join(keys, ", ");
}

// --- LimitOp -------------------------------------------------------------

bool LimitOp::DoNext(ExecTuple* out) {
  // Short-circuit: once satisfied, never pull the child again (the whole
  // point of LIMIT). Draining here used to force full upstream scans.
  if (emitted_ >= limit_) return false;
  if (!child_->Next(out)) return false;
  ++stats_.rows_in;
  ++emitted_;
  ++stats_.rows_out;
  return true;
}

// --- HashAggregateOp -----------------------------------------------------

void HashAggregateOp::EnsureAggregated() {
  if (aggregated_) return;
  std::unordered_map<Row, AggState, GroupKeyHash, GroupKeyEq> groups;
  ExecTuple t;
  Row group_key;
  while (child_->Next(&t)) {
    ++stats_.rows_in;
    group_key.clear();
    for (const BoundValue& g : group_) group_key.push_back(g.ReadOrNull(t));
    AggState& st = groups[group_key];
    if (st.count == 0) {
      st.sums.assign(items_->size(), 0.0);
      st.mins.assign(items_->size(), Value());
      st.maxs.assign(items_->size(), Value());
      st.non_null.assign(items_->size(), 0);
      st.non_numeric.assign(items_->size(), false);
    }
    ++st.count;
    for (size_t k = 0; k < items_->size(); ++k) {
      const SelectItem& item = (*items_)[k];
      if (item.agg == AggFunc::kNone || item.star) continue;
      const Value& v = cols_[k].ReadOrNull(t);
      if (v.is_null()) continue;
      ++st.non_null[k];
      if (v.type() == ValueType::kString) {
        st.non_numeric[k] = true;
      } else {
        st.sums[k] += v.AsDouble();
      }
      if (st.mins[k].is_null() || v.Compare(st.mins[k]) < 0) st.mins[k] = v;
      if (st.maxs[k].is_null() || v.Compare(st.maxs[k]) > 0) st.maxs[k] = v;
    }
  }
  if (groups.empty() && group_by_->empty()) {
    // COUNT over empty input yields one zero row.
    AggState& st = groups[Row()];
    st.sums.assign(items_->size(), 0.0);
    st.mins.assign(items_->size(), Value());
    st.maxs.assign(items_->size(), Value());
    st.non_null.assign(items_->size(), 0);
    st.non_numeric.assign(items_->size(), false);
  }
  stats_.sort_rows += static_cast<int64_t>(groups.size());
  for (const auto& [key, st] : groups) {
    Row out;
    for (size_t k = 0; k < items_->size(); ++k) {
      const SelectItem& item = (*items_)[k];
      switch (item.agg) {
        case AggFunc::kNone: {
          // A grouped plain column: take it from the key when possible.
          bool from_key = false;
          for (size_t g = 0; g < group_by_->size(); ++g) {
            if ((*group_by_)[g].column == item.column.column) {
              out.push_back(key[g]);
              from_key = true;
              break;
            }
          }
          if (!from_key) out.push_back(Value::Null());
          break;
        }
        case AggFunc::kCount: {
          const size_t n = item.star ? st.count : st.non_null[k];
          out.emplace_back(static_cast<int64_t>(n));
          break;
        }
        case AggFunc::kSum:
          // SUM/AVG over non-numeric input is NULL — a string column used
          // to contribute 0.0 silently.
          out.push_back(st.non_null[k] == 0 || st.non_numeric[k]
                            ? Value::Null()
                            : Value(st.sums[k]));
          break;
        case AggFunc::kAvg:
          out.push_back(st.non_null[k] == 0 || st.non_numeric[k]
                            ? Value::Null()
                            : Value(st.sums[k] / st.non_null[k]));
          break;
        case AggFunc::kMin:
          out.push_back(st.mins[k]);
          break;
        case AggFunc::kMax:
          out.push_back(st.maxs[k]);
          break;
      }
    }
    out_rows_.push_back(std::move(out));
  }
  aggregated_ = true;
}

bool HashAggregateOp::DoNext(ExecTuple* out) {
  EnsureAggregated();
  if (cursor_ >= out_rows_.size()) return false;
  out->slots.assign(1, &out_rows_[cursor_++]);
  out->rids.assign(1, kInvalidRowId);
  ++stats_.rows_out;
  return true;
}

std::string HashAggregateOp::detail() const {
  if (group_by_->empty()) return "single group";
  std::vector<std::string> keys;
  for (const ColumnRef& g : *group_by_) keys.push_back(g.ToString());
  return "group by " + Join(keys, ", ");
}

}  // namespace autoindex
