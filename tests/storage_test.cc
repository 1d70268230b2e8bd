#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace autoindex {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t(5)).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("hi").type(), ValueType::kString);
  EXPECT_EQ(Value(int64_t(5)).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(Value, IntDoubleCompareNumerically) {
  EXPECT_EQ(Value(int64_t(3)).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t(2)).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(int64_t(3))), 0);
}

TEST(Value, NullOrdersFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t(-100))), 0);
  EXPECT_LT(Value().Compare(Value("")), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(Value, NumbersBeforeStrings) {
  EXPECT_LT(Value(int64_t(999)).Compare(Value("0")), 0);
}

TEST(Value, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
  EXPECT_GT(Value("b").Compare(Value("ab")), 0);
}

TEST(Value, SqlLiteralQuoting) {
  EXPECT_EQ(Value("o'brien").ToSqlLiteral(), "'o''brien'");
  EXPECT_EQ(Value(int64_t(4)).ToSqlLiteral(), "4");
  EXPECT_EQ(Value().ToSqlLiteral(), "NULL");
}

TEST(Value, HashEqualForMixedNumericEquals) {
  EXPECT_EQ(Value(int64_t(7)).Hash(), Value(7.0).Hash());
}

TEST(Value, HashAgreesWithCompareAtTheEdgesOfDoublePrecision) {
  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> values = {
      Value(int64_t{0}),    Value(0.0),          Value(-0.0),
      Value(k53 - 1),       Value(k53),          Value(k53 + 1),
      Value(k53 + 2),       Value(k53 + 3),      Value(-k53),
      Value(-k53 - 1),      Value(-k53 - 2),     Value(0x1p53),
      Value(0x1p53 + 2),    Value(-0x1p53),      Value(-0x1p53 - 2),
      Value(kMax),          Value(kMax - 1),     Value(kMin),
      Value(kMin + 1),      Value(0x1p63),       Value(-0x1p63),
      Value(0x1p63 - 1024), Value(0x1p64),       Value(1e300),
      Value(inf),           Value(-inf),         Value(0.5)};
  int equal_pairs = 0;
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a.Compare(b) != 0) continue;
      ++equal_pairs;
      EXPECT_EQ(a.Hash(), b.Hash())
          << a.ToString() << " (" << ValueTypeName(a.type()) << ") vs "
          << b.ToString() << " (" << ValueTypeName(b.type()) << ")";
    }
  }
  // The list holds cross-type and cross-value equalities, not just each
  // value against itself.
  EXPECT_GT(equal_pairs, static_cast<int>(values.size()) + 20);
  // Ints a double holds exactly keep their identity hash.
  EXPECT_EQ(Value(int64_t{42}).Hash(), std::hash<int64_t>()(42));
  EXPECT_EQ(Value(-k53).Hash(), std::hash<int64_t>()(-k53));
}

TEST(Row, CompareLexicographic) {
  Row a{Value(int64_t(1)), Value(int64_t(2))};
  Row b{Value(int64_t(1)), Value(int64_t(3))};
  EXPECT_LT(CompareRows(a, b), 0);
  Row prefix{Value(int64_t(1))};
  EXPECT_LT(CompareRows(prefix, a), 0);  // shorter row sorts first
  EXPECT_EQ(CompareRows(a, a), 0);
}

TEST(Schema, LookupIsCaseInsensitive) {
  Schema s({{"Alpha", ValueType::kInt}, {"beta", ValueType::kString}});
  EXPECT_EQ(s.FindColumn("alpha"), 0);
  EXPECT_EQ(s.FindColumn("ALPHA"), 0);
  EXPECT_EQ(s.FindColumn("beta"), 1);
  EXPECT_EQ(s.FindColumn("gamma"), -1);
}

TEST(Schema, EstimatedRowBytesGrowsWithColumns) {
  Schema narrow({{"a", ValueType::kInt}});
  Schema wide({{"a", ValueType::kInt}, {"b", ValueType::kString, 100}});
  EXPECT_GT(wide.EstimatedRowBytes(), narrow.EstimatedRowBytes());
}

TEST(HeapTable, InsertGetUpdateDelete) {
  HeapTable t("t", Schema({{"a", ValueType::kInt}}));
  auto rid = t.Insert({Value(int64_t(1))});
  ASSERT_TRUE(rid.ok());
  EXPECT_TRUE(t.IsLive(*rid));
  EXPECT_EQ(t.Get(*rid)[0].AsInt(), 1);

  ASSERT_TRUE(t.Update(*rid, {Value(int64_t(2))}).ok());
  EXPECT_EQ(t.Get(*rid)[0].AsInt(), 2);

  ASSERT_TRUE(t.Delete(*rid).ok());
  EXPECT_FALSE(t.IsLive(*rid));
  EXPECT_EQ(t.num_rows(), 0u);
  // Double delete fails.
  EXPECT_FALSE(t.Delete(*rid).ok());
}

TEST(HeapTable, ArityChecked) {
  HeapTable t("t", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  EXPECT_FALSE(t.Insert({Value(int64_t(1))}).ok());
}

TEST(HeapTable, PageAccounting) {
  HeapTable t("t", Schema({{"a", ValueType::kInt}}));
  EXPECT_EQ(t.NumPages(), 0u);
  const size_t per_page = t.RowsPerPage();
  EXPECT_GT(per_page, 1u);
  for (size_t i = 0; i < per_page + 1; ++i) {
    ASSERT_TRUE(t.Insert({Value(int64_t(i))}).ok());
  }
  EXPECT_EQ(t.NumPages(), 2u);
  EXPECT_EQ(t.PageOfRow(0), 0u);
  EXPECT_EQ(t.PageOfRow(per_page), 1u);
  EXPECT_EQ(t.SizeBytes(), 2 * kPageSizeBytes);
}

TEST(HeapTable, ScanSkipsTombstones) {
  HeapTable t("t", Schema({{"a", ValueType::kInt}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value(int64_t(i))}).ok());
  }
  ASSERT_TRUE(t.Delete(3).ok());
  ASSERT_TRUE(t.Delete(7).ok());
  int count = 0;
  t.Scan([&](RowId rid, const Row&) {
    EXPECT_NE(rid, 3u);
    EXPECT_NE(rid, 7u);
    ++count;
  });
  EXPECT_EQ(count, 8);
}

TEST(Catalog, CreateGetDrop) {
  Catalog c;
  auto t = c.CreateTable("Foo", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.ok());
  EXPECT_NE(c.GetTable("foo"), nullptr);
  EXPECT_NE(c.GetTable("FOO"), nullptr);
  EXPECT_FALSE(
      c.CreateTable("foo", Schema({{"a", ValueType::kInt}})).ok());
  EXPECT_TRUE(c.DropTable("foo").ok());
  EXPECT_EQ(c.GetTable("foo"), nullptr);
  EXPECT_FALSE(c.DropTable("foo").ok());
}

TEST(Catalog, TableNamesSorted) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("zeta", Schema({{"a", ValueType::kInt}})).ok());
  ASSERT_TRUE(c.CreateTable("alpha", Schema({{"a", ValueType::kInt}})).ok());
  const auto names = c.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace autoindex
