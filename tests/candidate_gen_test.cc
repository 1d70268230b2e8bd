// Candidate index generation (Sec. IV-A): clause extraction, DNF-driven
// factorization, the selectivity threshold, and leftmost-prefix merging.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/candidate_gen.h"
#include "core/query_template.h"

namespace autoindex {
namespace {

class CandidateGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt},
                                         {"flag", ValueType::kInt}})));
    CheckOk(db_.CreateTable("u", Schema({{"x", ValueType::kInt},
                                         {"y", ValueType::kInt}})));
    std::vector<Row> t_rows, u_rows;
    for (int i = 0; i < 5000; ++i) {
      t_rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100)),
                        Value(int64_t(i % 7)), Value(int64_t(i % 2))});
    }
    for (int i = 0; i < 5000; ++i) {
      u_rows.push_back({Value(int64_t(i)), Value(int64_t(i % 50))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(t_rows)).ok());
    ASSERT_TRUE(db_.BulkInsert("u", std::move(u_rows)).ok());
    db_.Analyze();
  }

  std::vector<IndexDef> FromSql(const std::string& sql) {
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    CandidateGenerator gen(&db_);
    return gen.FromStatement(*stmt);
  }

  static bool Has(const std::vector<IndexDef>& defs, const IndexDef& want) {
    return std::any_of(defs.begin(), defs.end(),
                       [&](const IndexDef& d) { return d == want; });
  }

  Database db_;
};

TEST_F(CandidateGenTest, EqualityPredicateYieldsIndex) {
  auto defs = FromSql("SELECT b FROM t WHERE a = 5");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a"})));
}

TEST_F(CandidateGenTest, CompositeAndYieldsMultiColumnIndex) {
  // The paper: "for predicate a=$ and b>$, generate a candidate on (a,b)".
  auto defs = FromSql("SELECT c FROM t WHERE a = 5 AND b > 90");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a", "b"})));
}

TEST_F(CandidateGenTest, EqualityColumnsPrecedeRangeColumns) {
  auto defs = FromSql("SELECT c FROM t WHERE b > 90 AND a = 5");
  ASSERT_FALSE(defs.empty());
  // Regardless of textual order, the equality column leads.
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a", "b"})));
  EXPECT_FALSE(Has(defs, IndexDef("t", {"b", "a"})));
}

TEST_F(CandidateGenTest, WeakPredicateRejectedByThreshold) {
  // flag has 2 distinct values: selects half the table — above the 1/3
  // threshold, no index.
  auto defs = FromSql("SELECT a FROM t WHERE flag = 1");
  EXPECT_TRUE(defs.empty());
}

TEST_F(CandidateGenTest, DnfGeneratesPerConjunctIndexes) {
  // (a AND b) OR (a AND c): two conjunctions -> (a,b) and (a,c) candidates
  // (the paper's Example 6).
  auto defs = FromSql(
      "SELECT c FROM t WHERE (a = 1 AND b = 2) OR (a = 3 AND c = 4)");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a", "b"})));
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a", "c"})));
}

TEST_F(CandidateGenTest, JoinPredicateYieldsJoinColumnIndexes) {
  auto defs = FromSql(
      "SELECT t.a FROM t, u WHERE t.b = u.x AND t.a = 3");
  EXPECT_TRUE(Has(defs, IndexDef("u", {"x"})) ||
              Has(defs, IndexDef("t", {"b"})));
}

TEST_F(CandidateGenTest, OrderByYieldsIndex) {
  auto defs = FromSql("SELECT a FROM t ORDER BY b");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"b"})));
}

TEST_F(CandidateGenTest, GroupByYieldsIndexWhenEffective) {
  // b has 100 distinct over 5000 rows: grouping is effective.
  auto defs = FromSql("SELECT b, COUNT(*) FROM t GROUP BY b");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"b"})));
  // a is unique: grouping by a is a no-op, no index.
  auto none = FromSql("SELECT a, COUNT(*) FROM t GROUP BY a");
  EXPECT_FALSE(Has(none, IndexDef("t", {"a"})));
}

TEST_F(CandidateGenTest, UpdateWhereGeneratesLookupIndex) {
  auto defs = FromSql("UPDATE t SET c = 9 WHERE a = 5 AND b = 3");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a", "b"})) ||
              Has(defs, IndexDef("t", {"b", "a"})));
}

TEST_F(CandidateGenTest, DeleteWhereGeneratesLookupIndex) {
  auto defs = FromSql("DELETE FROM t WHERE a = 5");
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a"})));
}

TEST_F(CandidateGenTest, InsertGeneratesNothing) {
  EXPECT_TRUE(FromSql("INSERT INTO t VALUES (1, 2, 3, 4)").empty());
}

TEST_F(CandidateGenTest, SmallTablesSkipped) {
  CheckOk(db_.CreateTable("tiny", Schema({{"z", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value(int64_t(i))});
  ASSERT_TRUE(db_.BulkInsert("tiny", std::move(rows)).ok());
  db_.Analyze();
  EXPECT_TRUE(FromSql("SELECT z FROM tiny WHERE z = 3").empty());
}

TEST_F(CandidateGenTest, MaxColumnsRespected) {
  // Four predicate columns against the cap of three: the candidate keeps
  // the three most selective (equality columns first).
  auto defs = FromSql(
      "SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3 AND flag = 1");
  ASSERT_FALSE(defs.empty());
  for (const IndexDef& def : defs) {
    EXPECT_LE(def.columns.size(), 3u);
  }
  EXPECT_TRUE(Has(defs, IndexDef("t", {"a", "b", "c"})));
}

TEST(MergeCandidates, DropsExactDuplicates) {
  auto merged = MergeCandidates(
      {IndexDef("t", {"a"}), IndexDef("t", {"a"}), IndexDef("t", {"b"})});
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeCandidates, LeftmostPrefixMerge) {
  // (a) is a prefix of (a,b): only (a,b) survives (paper step 3).
  auto merged =
      MergeCandidates({IndexDef("t", {"a"}), IndexDef("t", {"a", "b"})});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].columns.size(), 2u);
}

TEST(MergeCandidates, NonPrefixSurvives) {
  auto merged =
      MergeCandidates({IndexDef("t", {"b"}), IndexDef("t", {"a", "b"})});
  EXPECT_EQ(merged.size(), 2u);
  // Different tables never merge.
  auto cross =
      MergeCandidates({IndexDef("t", {"a"}), IndexDef("u", {"a", "b"})});
  EXPECT_EQ(cross.size(), 2u);
}

TEST_F(CandidateGenTest, GenerateFiltersExistingAndCaps) {
  TemplateStore store(100);
  store.Observe("SELECT c FROM t WHERE a = 5");
  store.Observe("SELECT c FROM t WHERE b = 50 AND c = 3");
  CandidateGenerator gen(&db_);

  IndexConfig existing;
  auto all = gen.Generate(store.TemplatesByFrequency(), existing);
  EXPECT_FALSE(all.empty());

  // With (a) already built, it must not be re-proposed.
  existing.Add(IndexDef("t", {"a"}));
  auto fresh = gen.Generate(store.TemplatesByFrequency(), existing);
  for (const IndexDef& def : fresh) {
    EXPECT_FALSE(def == IndexDef("t", {"a"}));
  }
}

TEST_F(CandidateGenTest, GenerateHonorsMaxCandidates) {
  // Every pair of twelve selective columns is its own template and its own
  // two-column candidate: 66 distinct candidates against the cap of 64.
  constexpr int kColumns = 12;
  std::vector<Column> columns;
  for (int c = 0; c < kColumns; ++c) {
    columns.push_back({"k" + std::to_string(c), ValueType::kInt});
  }
  CheckOk(db_.CreateTable("wide", Schema(columns)));
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    Row row;
    for (int c = 0; c < kColumns; ++c) {
      row.emplace_back(int64_t(i % (100 + c)));
    }
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db_.BulkInsert("wide", std::move(rows)).ok());
  db_.Analyze();

  TemplateStore store(200);
  for (int i = 0; i < kColumns; ++i) {
    for (int j = i + 1; j < kColumns; ++j) {
      store.Observe("SELECT k0 FROM wide WHERE k" + std::to_string(i) +
                    " = 1 AND k" + std::to_string(j) + " = 2");
    }
  }
  ASSERT_EQ(store.size(), 66u);
  CandidateGenerator gen(&db_);
  auto defs = gen.Generate(store.TemplatesByFrequency(), IndexConfig());
  EXPECT_EQ(defs.size(), 64u);
}

}  // namespace
}  // namespace autoindex
