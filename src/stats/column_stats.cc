#include "stats/column_stats.h"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace autoindex {

namespace {

// A non-null numeric cell as ANALYZE sorts it: by its value as a double,
// which is what Value::Compare orders numbers by. `cell` keeps the int or
// double the statistics copy out.
struct NumberKey {
  double number;
  const Value* cell;
};

}  // namespace

ColumnStats ColumnStats::Build(const HeapTable& table, size_t ordinal,
                               size_t num_buckets) {
  ColumnStats stats;
  // One compact key per non-null cell: Compare puts every number before
  // every string, so the sorted column is `numbers` then `strings`.
  std::vector<NumberKey> numbers;
  std::vector<std::string_view> strings;
  numbers.reserve(table.num_rows());
  // Accumulators for physical-order correlation (numeric columns).
  double sum_x = 0, sum_y = 0, sum_xx = 0, sum_yy = 0, sum_xy = 0;
  table.Scan([&](RowId, const Row& row) {
    const Value& v = row[ordinal];
    ++stats.num_rows_;
    double y = 0.0;
    if (v.AsNumber(&y)) {
      const double x = static_cast<double>(numbers.size());
      sum_x += x;
      sum_y += y;
      sum_xx += x * x;
      sum_yy += y * y;
      sum_xy += x * y;
      numbers.push_back({y, &v});
    } else if (std::string_view str; v.IfString(&str)) {
      strings.push_back(str);
    } else {
      ++stats.num_nulls_;
    }
  });
  const size_t numeric_n = numbers.size();
  if (numeric_n > 2) {
    const double n = static_cast<double>(numeric_n);
    const double cov = sum_xy - sum_x * sum_y / n;
    const double var_x = sum_xx - sum_x * sum_x / n;
    const double var_y = sum_yy - sum_y * sum_y / n;
    if (var_x > 1e-12 && var_y > 1e-12) {
      stats.correlation_ =
          std::clamp(cov / std::sqrt(var_x * var_y), -1.0, 1.0);
    }
  }
  const size_t count = numeric_n + strings.size();
  if (count == 0) return stats;

  std::sort(numbers.begin(), numbers.end(),
            [](const NumberKey& a, const NumberKey& b) {
              return a.number < b.number;
            });
  std::sort(strings.begin(), strings.end());
  // The i-th smallest cell, copied.
  const auto value_at = [&](size_t i) {
    return i < numeric_n ? *numbers[i].cell : Value(strings[i - numeric_n]);
  };
  stats.min_ = value_at(0);
  stats.max_ = value_at(count - 1);

  size_t distinct = 0;
  for (size_t i = 0; i < numeric_n; ++i) {
    if (i == 0 || numbers[i].number != numbers[i - 1].number) ++distinct;
  }
  for (size_t i = 0; i < strings.size(); ++i) {
    if (i == 0 || strings[i] != strings[i - 1]) ++distinct;
  }
  stats.num_distinct_ = distinct;

  const size_t buckets = std::max<size_t>(1, std::min(num_buckets, count));
  stats.bucket_bounds_.reserve(buckets);
  for (size_t b = 1; b <= buckets; ++b) {
    stats.bucket_bounds_.push_back(
        value_at(std::min(count - 1, b * count / buckets)));
  }
  // Ensure the last bound is the max.
  stats.bucket_bounds_.back() = stats.max_;
  return stats;
}

double ColumnStats::FractionBelow(const Value& v) const {
  const size_t non_null = num_rows_ - num_nulls_;
  if (non_null == 0 || bucket_bounds_.empty()) return 0.0;
  if (v.Compare(min_) <= 0) return 0.0;
  if (v.Compare(max_) > 0) return 1.0;
  // Count full buckets whose upper bound is below v; interpolate within
  // the straddling bucket using value distance when numeric.
  size_t full = 0;
  while (full < bucket_bounds_.size() &&
         bucket_bounds_[full].Compare(v) < 0) {
    ++full;
  }
  double frac = static_cast<double>(full) / bucket_bounds_.size();
  if (full < bucket_bounds_.size()) {
    const Value& hi = bucket_bounds_[full];
    const Value& lo = (full == 0) ? min_ : bucket_bounds_[full - 1];
    if (v.type() != ValueType::kString && lo.type() != ValueType::kString &&
        hi.type() != ValueType::kString && !lo.is_null() && !hi.is_null()) {
      const double lo_d = lo.AsDouble();
      const double hi_d = hi.AsDouble();
      if (hi_d > lo_d) {
        double t = (v.AsDouble() - lo_d) / (hi_d - lo_d);
        t = std::clamp(t, 0.0, 1.0);
        frac += t / bucket_bounds_.size();
      }
    } else {
      frac += 0.5 / bucket_bounds_.size();  // string straddle: midpoint
    }
  }
  return std::clamp(frac, 0.0, 1.0);
}

double ColumnStats::EqSelectivity() const {
  if (num_rows_ == 0) return 0.0;
  if (num_distinct_ == 0) return 0.0;
  return 1.0 / static_cast<double>(num_distinct_);
}

double ColumnStats::Selectivity(CompareOp op, const Value& v) const {
  if (num_rows_ == 0) return 0.0;
  // SQL three-valued logic: `col <op> NULL` is UNKNOWN for every row, and
  // UNKNOWN never satisfies a WHERE clause.
  if (v.is_null()) return 0.0;
  const double non_null_frac =
      static_cast<double>(num_rows_ - num_nulls_) / num_rows_;
  // Provably-out-of-range literals: the min/max from ANALYZE bound every
  // stored value, so comparisons resolve exactly instead of falling back
  // to histogram fractions (which credit EqSelectivity to values that
  // cannot exist — the planner then keeps picking an index scan that will
  // match nothing, or vice versa).
  const bool below_min = v.Compare(min_) < 0;
  const bool above_max = v.Compare(max_) > 0;
  const bool at_or_below_min = v.Compare(min_) <= 0;
  const bool at_or_above_max = v.Compare(max_) >= 0;
  switch (op) {
    case CompareOp::kEq:
      if (below_min || above_max) return 0.0;
      return EqSelectivity() * non_null_frac;
    case CompareOp::kNe:
      if (below_min || above_max) return non_null_frac;
      return (1.0 - EqSelectivity()) * non_null_frac;
    case CompareOp::kLt:
      if (at_or_below_min) return 0.0;
      if (above_max) return non_null_frac;
      return FractionBelow(v) * non_null_frac;
    case CompareOp::kLe:
      if (below_min) return 0.0;
      if (at_or_above_max) return non_null_frac;
      return std::min(1.0, FractionBelow(v) + EqSelectivity()) *
             non_null_frac;
    case CompareOp::kGt:
      if (at_or_above_max) return 0.0;
      if (below_min) return non_null_frac;
      return (1.0 - std::min(1.0, FractionBelow(v) + EqSelectivity())) *
             non_null_frac;
    case CompareOp::kGe:
      if (above_max) return 0.0;
      if (at_or_below_min) return non_null_frac;
      return (1.0 - FractionBelow(v)) * non_null_frac;
    case CompareOp::kLike:
      // Leading-wildcard-free patterns behave like a narrow range; use a
      // fixed heuristic as classical optimizers do.
      return 0.05 * non_null_frac;
  }
  return 0.33;
}

double ColumnStats::RangeSelectivity(const Value& lo, const Value& hi) const {
  if (num_rows_ == 0) return 0.0;
  if (lo.is_null() || hi.is_null()) return 0.0;
  if (hi.Compare(lo) < 0) return 0.0;
  // Disjoint ranges: entirely below min or above max matches nothing
  // (without this, EqSelectivity leaks into below_hi and a range that
  // can't match anything still estimates > 0).
  if (hi.Compare(min_) < 0 || lo.Compare(max_) > 0) return 0.0;
  const double non_null_frac =
      static_cast<double>(num_rows_ - num_nulls_) / num_rows_;
  const double below_hi = std::min(1.0, FractionBelow(hi) + EqSelectivity());
  const double below_lo = FractionBelow(lo);
  return std::clamp(below_hi - below_lo, 0.0, 1.0) * non_null_frac;
}

double ColumnStats::InListSelectivity(const std::vector<Value>& list) const {
  double sel = 0.0;
  for (const Value& v : list) sel += Selectivity(CompareOp::kEq, v);
  return std::min(1.0, sel);
}

}  // namespace autoindex
