#pragma once

#include <string>
#include <vector>

#include "sql/expr.h"
#include "storage/table.h"
#include "storage/value.h"

namespace autoindex {

namespace persist {
class Reader;
class Writer;
}  // namespace persist

// Per-column statistics gathered by ANALYZE: row/NULL counts, distinct
// estimate, min/max and an equi-depth histogram. These drive selectivity
// estimation in the what-if planner.
class ColumnStats {
 public:
  ColumnStats() = default;

  // Builds the stats of every column of `table`, in schema order, from
  // one walk of its heap. `num_buckets` bounds the histogram resolution.
  static std::vector<ColumnStats> BuildTable(const HeapTable& table,
                                             size_t num_buckets = 32);

  size_t num_rows() const { return num_rows_; }
  size_t num_nulls() const { return num_nulls_; }
  size_t num_distinct() const { return num_distinct_; }
  const Value& min() const { return min_; }
  const Value& max() const { return max_; }
  // Equi-depth bucket upper bounds, ascending; the last is max().
  const std::vector<Value>& bucket_bounds() const { return bucket_bounds_; }

  // Pearson correlation in [-1, 1] between physical row order and column
  // value (pg_stats.correlation). |corr| ≈ 1 means an index range scan
  // touches contiguous heap pages; the planner blends heap-fetch costs
  // between the clustered and random extremes with corr². 0 for
  // non-numeric columns.
  double correlation() const { return correlation_; }

  // Fraction of rows satisfying `col <op> v`, in [0, 1].
  double Selectivity(CompareOp op, const Value& v) const;

  // Fraction of rows with lo <= col <= hi.
  double RangeSelectivity(const Value& lo, const Value& hi) const;

  // Fraction for `col IN (list)` (capped at 1).
  double InListSelectivity(const std::vector<Value>& list) const;

  // 1/num_distinct — the default equality selectivity.
  double EqSelectivity() const;

  // Snapshot serialization (src/persist/): the full state round-trips, so
  // a reloaded database estimates selectivities identically without
  // re-ANALYZE.
  void Save(persist::Writer* w) const;
  static ColumnStats Load(persist::Reader* r);

 private:
  // Sort buffers one BuildTable call reuses across its columns.
  struct SortScratch;

  // Stats of column `ordinal` over `rows`, the table's live rows in slot
  // order.
  static ColumnStats BuildColumn(const std::vector<const Row*>& rows,
                                 size_t ordinal, size_t num_buckets,
                                 SortScratch* scratch);

  // Fraction of non-null rows strictly below v (histogram interpolation).
  double FractionBelow(const Value& v) const;

  size_t num_rows_ = 0;
  size_t num_nulls_ = 0;
  size_t num_distinct_ = 0;
  double correlation_ = 0.0;
  Value min_;
  Value max_;
  // Equi-depth bucket upper bounds (ascending); each bucket holds
  // ~num_non_null/buckets rows.
  std::vector<Value> bucket_bounds_;
};

}  // namespace autoindex
