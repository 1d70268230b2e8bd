#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "persist/serde.h"
#include "sql/parser.h"
#include "stats/column_stats.h"
#include "stats/stats_manager.h"
#include "storage/catalog.h"
#include "util/random.h"

namespace autoindex {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = catalog_.CreateTable("t", Schema({{"u", ValueType::kInt},
                                               {"mod10", ValueType::kInt},
                                               {"s", ValueType::kString},
                                               {"n", ValueType::kInt}}));
    ASSERT_TRUE(t.ok());
    Random rng(99);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE((*t)
                      ->Insert({Value(int64_t(i)), Value(int64_t(i % 10)),
                                Value("cat" + std::to_string(i % 4)),
                                i % 5 == 0 ? Value() : Value(int64_t(i))})
                      .ok());
    }
  }

  Catalog catalog_;
};

TEST_F(StatsTest, BasicCounters) {
  const ColumnStats stats = ColumnStats::BuildTable(*catalog_.GetTable("t"))[0];
  EXPECT_EQ(stats.num_rows(), 10000u);
  EXPECT_EQ(stats.num_nulls(), 0u);
  EXPECT_EQ(stats.num_distinct(), 10000u);
  EXPECT_EQ(stats.min().AsInt(), 0);
  EXPECT_EQ(stats.max().AsInt(), 9999);
}

TEST_F(StatsTest, NullTracking) {
  const ColumnStats stats = ColumnStats::BuildTable(*catalog_.GetTable("t"))[3];
  EXPECT_EQ(stats.num_nulls(), 2000u);
}

TEST_F(StatsTest, EqualitySelectivity) {
  const ColumnStats mod10 = ColumnStats::BuildTable(*catalog_.GetTable("t"))[1];
  EXPECT_EQ(mod10.num_distinct(), 10u);
  EXPECT_NEAR(mod10.Selectivity(CompareOp::kEq, Value(int64_t(3))), 0.1,
              0.02);
  // Out-of-range equality has zero selectivity.
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kEq, Value(int64_t(99))),
                   0.0);
}

TEST_F(StatsTest, RangeSelectivityViaHistogram) {
  const ColumnStats u = ColumnStats::BuildTable(*catalog_.GetTable("t"))[0];
  EXPECT_NEAR(u.Selectivity(CompareOp::kLt, Value(int64_t(5000))), 0.5,
              0.06);
  EXPECT_NEAR(u.Selectivity(CompareOp::kGt, Value(int64_t(9000))), 0.1,
              0.05);
  EXPECT_NEAR(u.RangeSelectivity(Value(int64_t(1000)), Value(int64_t(2000))),
              0.1, 0.05);
  EXPECT_DOUBLE_EQ(u.RangeSelectivity(Value(int64_t(5)), Value(int64_t(1))),
                   0.0);
}

TEST_F(StatsTest, BoundaryBehaviour) {
  const ColumnStats u = ColumnStats::BuildTable(*catalog_.GetTable("t"))[0];
  EXPECT_NEAR(u.Selectivity(CompareOp::kLt, Value(int64_t(0))), 0.0, 1e-9);
  EXPECT_NEAR(u.Selectivity(CompareOp::kGe, Value(int64_t(0))), 1.0, 1e-9);
  EXPECT_NEAR(u.Selectivity(CompareOp::kGt, Value(int64_t(9999))), 0.0,
              0.01);
}

// Provably-out-of-range literals resolve exactly from min/max instead of
// leaking EqSelectivity / histogram fractions. The mod10 column holds
// 0..9 with no nulls, so each predicate below has a known exact answer.
TEST_F(StatsTest, OutOfRangeLiteralsResolveExactly) {
  const ColumnStats mod10 = ColumnStats::BuildTable(*catalog_.GetTable("t"))[1];
  // Equality against values outside [0, 9] matches nothing.
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kEq, Value(int64_t(-1))),
                   0.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kEq, Value(int64_t(10))),
                   0.0);
  // ... and their negation matches every non-null row.
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kNe, Value(int64_t(-1))),
                   1.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kNe, Value(int64_t(99))),
                   1.0);
  // col <= v for v below min matches nothing; at/above max, everything.
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kLe, Value(int64_t(-1))),
                   0.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kLe, Value(int64_t(9))),
                   1.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kLe, Value(int64_t(50))),
                   1.0);
  // col > v at/above max matches nothing; below min, everything.
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kGt, Value(int64_t(9))),
                   0.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kGt, Value(int64_t(-5))),
                   1.0);
  // col < v above max matches everything; col >= v below min likewise.
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kLt, Value(int64_t(42))),
                   1.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kGe, Value(int64_t(-3))),
                   1.0);
}

TEST_F(StatsTest, OutOfRangeScalesByNullFraction) {
  // Column n is null for every 5th row: out-of-range kNe/kLt answers must
  // exclude the null fifth, not report 1.0.
  const ColumnStats n = ColumnStats::BuildTable(*catalog_.GetTable("t"))[3];
  EXPECT_NEAR(n.Selectivity(CompareOp::kNe, Value(int64_t(-1))), 0.8, 1e-9);
  EXPECT_NEAR(n.Selectivity(CompareOp::kLt, Value(int64_t(999999))), 0.8,
              1e-9);
}

TEST_F(StatsTest, NullLiteralNeverMatches) {
  // `col <op> NULL` is UNKNOWN for every row under three-valued logic.
  const ColumnStats mod10 = ColumnStats::BuildTable(*catalog_.GetTable("t"))[1];
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kEq, Value()), 0.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kNe, Value()), 0.0);
  EXPECT_DOUBLE_EQ(mod10.Selectivity(CompareOp::kGe, Value()), 0.0);
  EXPECT_DOUBLE_EQ(mod10.RangeSelectivity(Value(), Value(int64_t(5))), 0.0);
}

TEST_F(StatsTest, DisjointRangeSelectivityIsZero) {
  const ColumnStats mod10 = ColumnStats::BuildTable(*catalog_.GetTable("t"))[1];
  // Entirely above max / below min: no overlap with [0, 9].
  EXPECT_DOUBLE_EQ(
      mod10.RangeSelectivity(Value(int64_t(20)), Value(int64_t(30))), 0.0);
  EXPECT_DOUBLE_EQ(
      mod10.RangeSelectivity(Value(int64_t(-30)), Value(int64_t(-20))), 0.0);
  // Sanity: an overlapping range still estimates > 0.
  EXPECT_GT(mod10.RangeSelectivity(Value(int64_t(2)), Value(int64_t(4))),
            0.0);
}

TEST_F(StatsTest, InListSelectivityAdds) {
  const ColumnStats mod10 = ColumnStats::BuildTable(*catalog_.GetTable("t"))[1];
  const double sel = mod10.InListSelectivity(
      {Value(int64_t(1)), Value(int64_t(2)), Value(int64_t(3))});
  EXPECT_NEAR(sel, 0.3, 0.05);
}

TEST_F(StatsTest, StringColumnStats) {
  const ColumnStats s = ColumnStats::BuildTable(*catalog_.GetTable("t"))[2];
  EXPECT_EQ(s.num_distinct(), 4u);
  EXPECT_NEAR(s.Selectivity(CompareOp::kEq, Value("cat2")), 0.25, 0.01);
}

TEST_F(StatsTest, ManagerCachesAndInvalidates) {
  StatsManager mgr(&catalog_);
  const std::shared_ptr<const ColumnStats> first =
      mgr.GetColumnStats("t", "u");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(mgr.GetColumnStats("t", "u"), first);  // cached snapshot
  mgr.Invalidate("t");
  const std::shared_ptr<const ColumnStats> second =
      mgr.GetColumnStats("t", "u");
  ASSERT_NE(second, nullptr);
  // A pre-invalidation snapshot stays readable (immutable shared_ptr).
  EXPECT_EQ(first->num_rows(), second->num_rows());
  EXPECT_EQ(mgr.GetColumnStats("t", "nope"), nullptr);
  EXPECT_EQ(mgr.GetColumnStats("missing", "u"), nullptr);
}

ExprPtr WhereOf(const std::string& cond) {
  auto stmt = ParseSql("SELECT u FROM t WHERE " + cond);
  EXPECT_TRUE(stmt.ok()) << cond;
  return std::move(stmt->select->where);
}

TEST_F(StatsTest, ExpressionSelectivityComposition) {
  StatsManager mgr(&catalog_);
  // AND multiplies.
  EXPECT_NEAR(mgr.EstimateSelectivity(*WhereOf("mod10 = 3 AND s = 'cat1'"),
                                      "t"),
              0.1 * 0.25, 0.02);
  // OR uses inclusion-exclusion.
  EXPECT_NEAR(mgr.EstimateSelectivity(*WhereOf("mod10 = 3 OR mod10 = 4"),
                                      "t"),
              0.1 + 0.1 - 0.01, 0.03);
  // NOT complements.
  EXPECT_NEAR(mgr.EstimateSelectivity(*WhereOf("NOT (mod10 = 3)"), "t"), 0.9,
              0.03);
}

TEST_F(StatsTest, JoinPredicateIsNeutral) {
  StatsManager mgr(&catalog_);
  EXPECT_DOUBLE_EQ(
      mgr.EstimateSelectivity(*WhereOf("t.u = other.x"), "t"), 1.0);
}

TEST_F(StatsTest, SwappedLiteralComparison) {
  StatsManager mgr(&catalog_);
  // "5000 > u" == "u < 5000".
  EXPECT_NEAR(mgr.EstimateSelectivity(*WhereOf("5000 > u"), "t"), 0.5, 0.06);
}

TEST_F(StatsTest, IsNullSelectivity) {
  StatsManager mgr(&catalog_);
  EXPECT_NEAR(mgr.EstimateSelectivity(*WhereOf("n IS NULL"), "t"), 0.2,
              0.02);
  EXPECT_NEAR(mgr.EstimateSelectivity(*WhereOf("n IS NOT NULL"), "t"), 0.8,
              0.02);
}

TEST(StatsEdge, EmptyTable) {
  Catalog catalog;
  auto t = catalog.CreateTable("e", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_EQ(stats.num_rows(), 0u);
  EXPECT_DOUBLE_EQ(stats.Selectivity(CompareOp::kEq, Value(int64_t(1))), 0.0);
  EXPECT_DOUBLE_EQ(stats.EqSelectivity(), 0.0);
}

TEST(StatsEdge, AllNullColumn) {
  Catalog catalog;
  auto t = catalog.CreateTable("e", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*t)->Insert({Value()}).ok());
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_EQ(stats.num_nulls(), 10u);
  EXPECT_DOUBLE_EQ(stats.Selectivity(CompareOp::kEq, Value(int64_t(1))), 0.0);
}

TEST(StatsEdge, SingleValueColumn) {
  Catalog catalog;
  auto t = catalog.CreateTable("e", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*t)->Insert({Value(int64_t(7))}).ok());
  }
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_EQ(stats.num_distinct(), 1u);
  EXPECT_NEAR(stats.Selectivity(CompareOp::kEq, Value(int64_t(7))), 1.0,
              1e-9);
  EXPECT_DOUBLE_EQ(stats.Selectivity(CompareOp::kEq, Value(int64_t(8))), 0.0);
}

}  // namespace
}  // namespace autoindex

namespace autoindex {
namespace {

TEST(Correlation, SequentialColumnFullyCorrelated) {
  Catalog catalog;
  auto t = catalog.CreateTable("c", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*t)->Insert({Value(int64_t(i))}).ok());
  }
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_GT(stats.correlation(), 0.99);
}

TEST(Correlation, ReversedColumnNegativelyCorrelated) {
  Catalog catalog;
  auto t = catalog.CreateTable("c", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  for (int i = 5000; i > 0; --i) {
    ASSERT_TRUE((*t)->Insert({Value(int64_t(i))}).ok());
  }
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_LT(stats.correlation(), -0.99);
}

TEST(Correlation, ShuffledColumnUncorrelated) {
  Catalog catalog;
  auto t = catalog.CreateTable("c", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  Random rng(77);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*t)->Insert({Value(rng.UniformInt(0, 100000))}).ok());
  }
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_LT(std::abs(stats.correlation()), 0.1);
}

TEST(Correlation, StringColumnReportsZero) {
  Catalog catalog;
  auto t = catalog.CreateTable("c", Schema({{"s", ValueType::kString}}));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*t)->Insert({Value("v" + std::to_string(i))}).ok());
  }
  const ColumnStats stats = ColumnStats::BuildTable(**t)[0];
  EXPECT_DOUBLE_EQ(stats.correlation(), 0.0);
}

// --- typed-key ANALYZE against the Value sort it replaced ---------------

// What ANALYZE computed when it copied every non-null cell into
// a std::vector<Value> and sorted that with Value::Compare. Kept here only
// as the reference the typed-key BuildTable must agree with.
struct ReferenceStats {
  size_t num_rows = 0;
  size_t num_nulls = 0;
  size_t num_distinct = 0;
  double correlation = 0.0;
  Value min;
  Value max;
  std::vector<Value> bounds;
};

ReferenceStats BuildByValueSort(const HeapTable& table, size_t ordinal,
                                size_t num_buckets = 32) {
  ReferenceStats stats;
  std::vector<Value> values;
  double sum_x = 0, sum_y = 0, sum_xx = 0, sum_yy = 0, sum_xy = 0;
  size_t numeric_n = 0;
  table.Scan([&](RowId, const Row& row) {
    const Value& v = row[ordinal];
    ++stats.num_rows;
    if (v.is_null()) {
      ++stats.num_nulls;
      return;
    }
    if (v.type() != ValueType::kString) {
      const double x = static_cast<double>(numeric_n);
      const double y = v.AsDouble();
      sum_x += x;
      sum_y += y;
      sum_xx += x * x;
      sum_yy += y * y;
      sum_xy += x * y;
      ++numeric_n;
    }
    values.push_back(v);
  });
  if (numeric_n > 2) {
    const double n = static_cast<double>(numeric_n);
    const double cov = sum_xy - sum_x * sum_y / n;
    const double var_x = sum_xx - sum_x * sum_x / n;
    const double var_y = sum_yy - sum_y * sum_y / n;
    if (var_x > 1e-12 && var_y > 1e-12) {
      stats.correlation =
          std::clamp(cov / std::sqrt(var_x * var_y), -1.0, 1.0);
    }
  }
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  stats.min = values.front();
  stats.max = values.back();
  size_t distinct = 1;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i].Compare(values[i - 1]) != 0) ++distinct;
  }
  stats.num_distinct = distinct;
  const size_t buckets =
      std::max<size_t>(1, std::min(num_buckets, values.size()));
  for (size_t b = 1; b <= buckets; ++b) {
    stats.bounds.push_back(
        values[std::min(values.size() - 1, b * values.size() / buckets)]);
  }
  stats.bounds.back() = stats.max;
  return stats;
}

// One random cell. NaN is never produced: Value::Compare finds NaN equal to
// every number, so on a column holding NaN it is no strict weak order,
// std::sort's result is unspecified, and two correct sorts may disagree on
// min, max, bounds and distinct count alike.
Value RandomCell(Random* rng, int mode) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  switch (rng->Uniform(mode == 0 ? 9 : 4)) {
    case 0:
      return Value();
    case 1:  // small ints: many duplicates
      return Value(rng->UniformInt(-5, 5));
    case 2:  // doubles equal to small ints, fractions, and both zeros
      switch (rng->Uniform(4)) {
        case 0:
          return Value(static_cast<double>(rng->UniformInt(-5, 5)));
        case 1:
          return Value(-0.0);
        case 2:
          return Value(0.0);
        default:
          return Value(rng->NextDouble() * 10.0 - 5.0);
      }
    case 3:  // strings, short alphabet so they repeat
      return Value(rng->NextName(static_cast<int>(rng->UniformInt(0, 2))));
    case 4:  // ints beyond +-2^53: neighbours compare equal as doubles
      return Value((rng->Bernoulli(0.5) ? kTwo53 : -kTwo53) +
                   rng->UniformInt(-3, 3) * (rng->Bernoulli(0.5) ? 1 : 1024));
    case 5:
      return Value(rng->Bernoulli(0.5) ? std::numeric_limits<int64_t>::max()
                                       : std::numeric_limits<int64_t>::min());
    case 6:
      return Value(static_cast<double>(kTwo53) + 2.0 * rng->UniformInt(-2, 2));
    case 7:
      return Value(rng->Bernoulli(0.5)
                       ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity());
    default:
      return Value(rng->UniformInt(-1000000, 1000000));
  }
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(ColumnStatsDifferential, TypedKeysAgreeWithValueSort) {
  Random rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    Catalog catalog;
    auto t = catalog.CreateTable("m", Schema({{"v", ValueType::kInt}}));
    ASSERT_TRUE(t.ok());
    // mode 0 mixes every kind of cell; mode 1 keeps to NULLs, small ints,
    // small doubles (both zeros among them) and short strings, so
    // duplicates dominate.
    const int mode = static_cast<int>(rng.Uniform(2));
    const int rows = static_cast<int>(rng.UniformInt(0, 400));
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE((*t)->Insert({RandomCell(&rng, mode)}).ok());
    }
    const size_t buckets = 1 + rng.Uniform(40);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", rows " +
                 std::to_string(rows) + ", buckets " +
                 std::to_string(buckets));
    const ColumnStats got = ColumnStats::BuildTable(**t, buckets)[0];
    const ReferenceStats want = BuildByValueSort(**t, 0, buckets);
    EXPECT_EQ(got.num_rows(), want.num_rows);
    EXPECT_EQ(got.num_nulls(), want.num_nulls);
    EXPECT_EQ(got.num_distinct(), want.num_distinct);
    EXPECT_EQ(Bits(got.correlation()), Bits(want.correlation));
    EXPECT_EQ(got.min().Compare(want.min), 0) << got.min().ToString();
    EXPECT_EQ(got.max().Compare(want.max), 0) << got.max().ToString();
    EXPECT_EQ(got.min().is_null(), want.min.is_null());
    ASSERT_EQ(got.bucket_bounds().size(), want.bounds.size());
    for (size_t b = 0; b < want.bounds.size(); ++b) {
      EXPECT_EQ(got.bucket_bounds()[b].Compare(want.bounds[b]), 0)
          << "bound " << b;
    }
  }
}

// BuildTable walks the heap once for all columns and reuses its sort
// buffers from column to column; each column must still come out as if it
// had been built alone. Tables here have several columns of different
// mixes, and tombstones the walk must skip. Besides RandomCell's two
// mixes, a column may hold NULLs and ints of one span: narrower than the
// row count, wider, or beyond ±2^53, where a single large int re-keys
// every earlier cell of the column.
TEST(ColumnStatsDifferential, EveryColumnOfATableAgreesWithValueSort) {
  constexpr int64_t kSpans[] = {3, 100, 1 << 20, int64_t{1} << 60};
  Random rng(2626);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t num_columns = 1 + rng.Uniform(6);
    std::vector<Column> columns;
    std::vector<int> modes;
    std::vector<int64_t> spans;
    for (size_t c = 0; c < num_columns; ++c) {
      columns.push_back({"c" + std::to_string(c), ValueType::kInt});
      modes.push_back(static_cast<int>(rng.Uniform(3)));
      spans.push_back(kSpans[rng.Uniform(4)]);
    }
    Catalog catalog;
    auto t = catalog.CreateTable("m", Schema(columns));
    ASSERT_TRUE(t.ok());
    const int rows = static_cast<int>(rng.UniformInt(0, 300));
    for (int i = 0; i < rows; ++i) {
      Row row;
      for (size_t c = 0; c < num_columns; ++c) {
        if (modes[c] < 2) {
          row.push_back(RandomCell(&rng, modes[c]));
        } else if (rng.Bernoulli(0.1)) {
          row.push_back(Value());
        } else {
          row.push_back(Value(rng.UniformInt(-spans[c], spans[c])));
        }
      }
      ASSERT_TRUE((*t)->Insert(std::move(row)).ok());
    }
    for (int i = 0; i < rows; ++i) {
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE((*t)->Delete(static_cast<RowId>(i)).ok());
      }
    }
    const size_t buckets = 1 + rng.Uniform(40);
    const std::vector<ColumnStats> got = ColumnStats::BuildTable(**t, buckets);
    ASSERT_EQ(got.size(), num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", column " +
                   std::to_string(c) + ", buckets " + std::to_string(buckets));
      const ReferenceStats want = BuildByValueSort(**t, c, buckets);
      EXPECT_EQ(got[c].num_rows(), want.num_rows);
      EXPECT_EQ(got[c].num_nulls(), want.num_nulls);
      EXPECT_EQ(got[c].num_distinct(), want.num_distinct);
      EXPECT_EQ(Bits(got[c].correlation()), Bits(want.correlation));
      EXPECT_EQ(got[c].min().Compare(want.min), 0);
      EXPECT_EQ(got[c].max().Compare(want.max), 0);
      EXPECT_EQ(got[c].min().is_null(), want.min.is_null());
      ASSERT_EQ(got[c].bucket_bounds().size(), want.bounds.size());
      for (size_t b = 0; b < want.bounds.size(); ++b) {
        EXPECT_EQ(got[c].bucket_bounds()[b].Compare(want.bounds[b]), 0)
            << "bound " << b;
      }
    }
  }
}

// NaN is unordered under `<`, so a comparison sort leaves a column holding
// it in no defined order. ANALYZE orders every NaN, whatever its sign or
// payload, as one value above +inf, and ties keep scan order.
TEST(ColumnStatsNaN, EveryNaNIsOneValueAboveInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Catalog catalog;
  auto t = catalog.CreateTable("n", Schema({{"v", ValueType::kDouble}}));
  ASSERT_TRUE(t.ok());
  for (const Value& v :
       {Value(int64_t(3)), Value(nan), Value(-inf), Value(int64_t(1)),
        Value(std::copysign(nan, -1.0)), Value(inf), Value(int64_t(2)),
        Value(nan)}) {
    ASSERT_TRUE((*t)->Insert({v}).ok());
  }
  // Sorted: -inf, 1, 2, 3, +inf, NaN, -NaN, NaN.
  const ColumnStats stats = ColumnStats::BuildTable(**t, 4)[0];
  EXPECT_EQ(stats.num_rows(), 8u);
  EXPECT_EQ(stats.num_distinct(), 6u);  // -inf, 1, 2, 3, +inf and NaN
  EXPECT_EQ(stats.min().AsDouble(), -inf);
  EXPECT_TRUE(std::isnan(stats.max().AsDouble()));
  EXPECT_DOUBLE_EQ(stats.correlation(), 0.0);
  // Bounds at ranks 2, 4, 6 and the max; a bound copies its cell, so the
  // int 2 stays an int, and the NaN at rank 6 is the sign-flipped one.
  ASSERT_EQ(stats.bucket_bounds().size(), 4u);
  EXPECT_EQ(stats.bucket_bounds()[0].type(), ValueType::kInt);
  EXPECT_EQ(stats.bucket_bounds()[0].AsInt(), 2);
  EXPECT_EQ(stats.bucket_bounds()[1].AsDouble(), inf);
  EXPECT_TRUE(std::signbit(stats.bucket_bounds()[2].AsDouble()));
  EXPECT_TRUE(std::isnan(stats.bucket_bounds()[2].AsDouble()));
  EXPECT_TRUE(std::isnan(stats.bucket_bounds()[3].AsDouble()));

  // Two builds of one column agree byte for byte.
  persist::Writer first, second;
  stats.Save(&first);
  ColumnStats::BuildTable(**t, 4)[0].Save(&second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

// --- ANALYZE skips unchanged tables ---------------------------------------

TEST(AnalyzeSkip, UnchangedTableKeepsItsStatistics) {
  Catalog catalog;
  auto t = catalog.CreateTable("t", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*t)->Insert({Value(int64_t(i))}).ok());
  }
  StatsManager mgr(&catalog);
  mgr.Analyze("t");
  const std::shared_ptr<const ColumnStats> first = mgr.GetColumnStats("t", "a");
  ASSERT_NE(first, nullptr);
  mgr.Analyze("t");
  mgr.AnalyzeAll();
  EXPECT_EQ(mgr.GetColumnStats("t", "a"), first);  // not rebuilt

  // Each kind of row change makes the next Analyze rebuild.
  ASSERT_TRUE((*t)->Insert({Value(int64_t(1000))}).ok());
  mgr.Analyze("t");
  const std::shared_ptr<const ColumnStats> inserted =
      mgr.GetColumnStats("t", "a");
  EXPECT_NE(inserted, first);
  EXPECT_EQ(inserted->num_rows(), 51u);
  EXPECT_EQ(inserted->max().AsInt(), 1000);

  ASSERT_TRUE((*t)->Update(0, {Value(int64_t(-7))}).ok());
  mgr.Analyze("t");
  const std::shared_ptr<const ColumnStats> updated =
      mgr.GetColumnStats("t", "a");
  EXPECT_NE(updated, inserted);
  EXPECT_EQ(updated->min().AsInt(), -7);

  ASSERT_TRUE((*t)->Delete(50).ok());
  mgr.Analyze("t");
  const std::shared_ptr<const ColumnStats> deleted =
      mgr.GetColumnStats("t", "a");
  EXPECT_NE(deleted, updated);
  EXPECT_EQ(deleted->num_rows(), 50u);
  EXPECT_EQ(deleted->max().AsInt(), 49);

  // Invalidate still forces a rebuild.
  mgr.Invalidate("t");
  mgr.Analyze("t");
  EXPECT_NE(mgr.GetColumnStats("t", "a"), deleted);
}

TEST(AnalyzeSkip, RecreatedTableIsRebuilt) {
  Catalog catalog;
  StatsManager mgr(&catalog);
  // Two tables of one name, each with three inserts: equal modification
  // counts, different rows. Only the table's identity tells them apart.
  for (int64_t base : {0, 100}) {
    if (base != 0) {
      ASSERT_TRUE(catalog.DropTable("t").ok());
    }
    auto t = catalog.CreateTable("t", Schema({{"a", ValueType::kInt}}));
    ASSERT_TRUE(t.ok());
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*t)->Insert({Value(base + i)}).ok());
    }
    mgr.Analyze("t");
    const std::shared_ptr<const ColumnStats> stats =
        mgr.GetColumnStats("t", "a");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->min().AsInt(), base);
    EXPECT_EQ(stats->max().AsInt(), base + 2);
  }
}

}  // namespace
}  // namespace autoindex
