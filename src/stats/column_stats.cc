#include "stats/column_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace autoindex {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
// Every NaN's image: one value above +inf's.
constexpr uint64_t kNanImage = ~uint64_t{0};
// Ints within this magnitude are exact as doubles.
constexpr int64_t kExactIntLimit = int64_t{1} << 53;

// The order-preserving 64-bit image of a number: unsigned order on images
// is `<` on doubles, which is what Value::Compare orders numbers by. -0.0
// folds onto +0.0 so the two tie, as they compare; NaN, which `<` leaves
// unordered, gets kNanImage.
uint64_t NumberImage(double d) {
  if (std::isnan(d)) return kNanImage;
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | kSignBit;
}

// The key of an int within ±kExactIntLimit, for a column whose numbers are
// all such ints: unsigned order on these keys is the ints' order, which is
// their doubles' order, and a small-range column gets dense keys.
uint64_t IntKey(int64_t i) { return static_cast<uint64_t>(i) ^ kSignBit; }

// A non-null numeric cell as ANALYZE sorts it: its key (an image, or an
// IntKey when the column's numbers are all exact ints), and the index of
// its row in the table walk, from which the statistics copy the cell.
struct NumberKey {
  uint64_t key;
  uint32_t row;
};

// Stable counting pass: scatters `keys` into `buffer` by digit(key), at
// the exclusive prefix sums of `counts` (one count per digit value), and
// swaps the two.
template <typename Digit>
void ScatterPass(std::vector<uint32_t>::iterator counts, size_t num_digits,
                 Digit digit, std::vector<NumberKey>* keys,
                 std::vector<NumberKey>* buffer) {
  uint32_t sum = 0;
  for (size_t d = 0; d < num_digits; ++d) {
    const uint32_t bucket = counts[d];
    counts[d] = sum;
    sum += bucket;
  }
  NumberKey* out = buffer->data();
  for (const NumberKey& k : *keys) out[counts[digit(k.key)]++] = k;
  keys->swap(*buffer);
}

// Stable sort of `keys` by key, so ties keep scan order. Keys are sorted as
// offsets from the least: when the offsets span fewer values than there
// are keys (a small-range int column), one counting pass sorts them;
// otherwise an LSD radix sort takes a byte per pass and skips every byte
// that all offsets share, whose pass would move nothing. `buffer` and
// `counts` are scratch.
void SortKeys(std::vector<NumberKey>* keys, std::vector<NumberKey>* buffer,
              std::vector<uint32_t>* counts) {
  const size_t n = keys->size();
  if (n < 2) return;
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (const NumberKey& k : *keys) {
    lo = std::min(lo, k.key);
    hi = std::max(hi, k.key);
  }
  buffer->resize(n);
  const uint64_t range = hi - lo;
  if (range < n) {
    counts->assign(range + 1, 0);
    for (const NumberKey& k : *keys) ++(*counts)[k.key - lo];
    ScatterPass(counts->begin(), range + 1,
                [lo](uint64_t key) { return key - lo; }, keys, buffer);
    return;
  }
  size_t num_bytes = 0;
  while (num_bytes < 8 && (range >> (8 * num_bytes)) != 0) ++num_bytes;
  counts->assign(256 * num_bytes, 0);
  for (const NumberKey& k : *keys) {
    for (size_t b = 0; b < num_bytes; ++b) {
      ++(*counts)[256 * b + (((k.key - lo) >> (8 * b)) & 0xFF)];
    }
  }
  for (size_t b = 0; b < num_bytes; ++b) {
    const auto byte_counts = counts->begin() + 256 * b;
    const auto digit = [lo, shift = 8 * b](uint64_t key) {
      return ((key - lo) >> shift) & 0xFF;
    };
    if (byte_counts[digit((*keys)[0].key)] == n) continue;
    ScatterPass(byte_counts, 256, digit, keys, buffer);
  }
}

}  // namespace

struct ColumnStats::SortScratch {
  std::vector<NumberKey> numbers;
  std::vector<NumberKey> buffer;
  std::vector<uint32_t> counts;
  std::vector<std::string_view> strings;
};

std::vector<ColumnStats> ColumnStats::BuildTable(const HeapTable& table,
                                                 size_t num_buckets) {
  // One walk of the heap; each column then reads its cells through these.
  // Row indexes are 32-bit sort payloads.
  std::vector<const Row*> rows;
  rows.reserve(table.num_rows());
  table.Scan([&](RowId, const Row& row) { rows.push_back(&row); });
  SortScratch scratch;
  scratch.numbers.reserve(rows.size());
  std::vector<ColumnStats> columns;
  columns.reserve(table.schema().num_columns());
  for (size_t i = 0; i < table.schema().num_columns(); ++i) {
    columns.push_back(BuildColumn(rows, i, num_buckets, &scratch));
  }
  return columns;
}

ColumnStats ColumnStats::BuildColumn(const std::vector<const Row*>& rows,
                                     size_t ordinal, size_t num_buckets,
                                     SortScratch* scratch) {
  ColumnStats stats;
  stats.num_rows_ = rows.size();
  // One compact key per non-null cell: Compare puts every number before
  // every string, so the sorted column is `numbers` then `strings`.
  std::vector<NumberKey>& numbers = scratch->numbers;
  std::vector<std::string_view>& strings = scratch->strings;
  numbers.clear();
  strings.clear();
  // Accumulators for physical-order correlation (numeric columns).
  double sum_x = 0, sum_y = 0, sum_xx = 0, sum_yy = 0, sum_xy = 0;
  bool exact_ints = true;  // every number so far is keyed by IntKey
  for (size_t r = 0; r < rows.size(); ++r) {
    const Value& v = (*rows[r])[ordinal];
    double y = 0.0;
    if (v.AsNumber(&y)) {
      const double x = static_cast<double>(numbers.size());
      sum_x += x;
      sum_y += y;
      sum_xx += x * x;
      sum_yy += y * y;
      sum_xy += x * y;
      if (exact_ints && (v.type() != ValueType::kInt ||
                         v.AsInt() < -kExactIntLimit ||
                         v.AsInt() > kExactIntLimit)) {
        // The first other number: the column is keyed by images.
        exact_ints = false;
        for (NumberKey& k : numbers) {
          k.key = NumberImage(
              static_cast<double>(static_cast<int64_t>(k.key ^ kSignBit)));
        }
      }
      numbers.push_back({exact_ints ? IntKey(v.AsInt()) : NumberImage(y),
                         static_cast<uint32_t>(r)});
    } else if (std::string_view str; v.IfString(&str)) {
      strings.push_back(str);
    } else {
      ++stats.num_nulls_;
    }
  }
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

  SortKeys(&numbers, &scratch->buffer, &scratch->counts);
  std::sort(strings.begin(), strings.end());
  // The i-th smallest cell, copied: a number keeps its int or double.
  const auto value_at = [&](size_t i) {
    return i < numeric_n ? (*rows[numbers[i].row])[ordinal]
                         : Value(strings[i - numeric_n]);
  };
  stats.min_ = value_at(0);
  stats.max_ = value_at(count - 1);

  size_t distinct = 0;
  for (size_t i = 0; i < numeric_n; ++i) {
    if (i == 0 || numbers[i].key != numbers[i - 1].key) ++distinct;
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
