// EXPLAIN output: plan rendering reflects the planner's actual choices.

#include <gtest/gtest.h>

#include "engine/explain.h"

namespace autoindex {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt}})));
    CheckOk(db_.CreateTable("d", Schema({{"k", ValueType::kInt},
                                         {"v", ValueType::kInt}})));
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
    rows.clear();
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i))});
    }
    ASSERT_TRUE(db_.BulkInsert("d", std::move(rows)).ok());
    db_.Analyze();
  }

  Database db_;
};

TEST_F(ExplainTest, SeqScanWithoutIndexes) {
  auto plan = ExplainSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("seq scan on t"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("estimated total cost"), std::string::npos);
}

TEST_F(ExplainTest, IndexScanWhenAvailable) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto plan = ExplainSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index scan on t via idx_t_a"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("a = ?"), std::string::npos);
}

TEST_F(ExplainTest, HashJoinRendered) {
  auto plan = ExplainSql(
      db_, "SELECT t.b FROM d, t WHERE t.a = d.k AND d.v = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("hash join to t"), std::string::npos) << *plan;
}

TEST_F(ExplainTest, SortAndAggregateMarkers) {
  auto plan = ExplainSql(
      db_, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("hash aggregate"), std::string::npos);
  EXPECT_NE(plan->find("sort"), std::string::npos);
}

TEST_F(ExplainTest, WhatIfConfigOverridesBuilt) {
  // No built index — but the explain under a hypothetical config shows
  // the index plan (the hypopg-style workflow).
  auto stmt = ParseSql("SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(stmt.ok());
  const std::string plan = ExplainStatement(
      db_, *stmt, IndexConfig({IndexDef("t", {"a"})}));
  EXPECT_NE(plan.find("index scan"), std::string::npos) << plan;
}

TEST_F(ExplainTest, WriteStatements) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto upd = ExplainSql(db_, "UPDATE t SET b = 1 WHERE a = 5");
  ASSERT_TRUE(upd.ok());
  EXPECT_NE(upd->find("update rows"), std::string::npos);
  EXPECT_NE(upd->find("index scan"), std::string::npos);
  auto ins = ExplainSql(db_, "INSERT INTO t VALUES (1, 2)");
  ASSERT_TRUE(ins.ok());
  EXPECT_NE(ins->find("insert into t"), std::string::npos);
}

// --- EXPLAIN ANALYZE: executes for real, renders est vs actual ----------

TEST_F(ExplainTest, AnalyzeRendersOperatorsWithActualCounters) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto out = ExplainAnalyzeSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("IndexScan"), std::string::npos) << *out;
  EXPECT_NE(out->find("idx_t_a"), std::string::npos) << *out;
  EXPECT_NE(out->find("Project"), std::string::npos) << *out;
  EXPECT_NE(out->find("(est."), std::string::npos) << *out;
  EXPECT_NE(out->find("(actual: rows=1"), std::string::npos) << *out;
  EXPECT_NE(out->find("measured cost:"), std::string::npos) << *out;
  // The feedback section names the access path with est vs actual.
  EXPECT_NE(out->find("feedback:"), std::string::npos) << *out;
  EXPECT_NE(out->find("t via idx_t_a"), std::string::npos) << *out;
}

TEST_F(ExplainTest, AnalyzeSeqScanFeedbackAndJoinOperators) {
  auto out = ExplainAnalyzeSql(
      db_, "SELECT t.b FROM d, t WHERE t.a = d.k AND d.v = 3");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("HashJoin"), std::string::npos) << *out;
  EXPECT_NE(out->find("SeqScan"), std::string::npos) << *out;
  EXPECT_NE(out->find("via seq scan"), std::string::npos) << *out;
}

TEST_F(ExplainTest, AnalyzeRendersOperatorDetails) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto probe = ExplainAnalyzeSql(db_, "SELECT b, a FROM t WHERE a = 5");
  ASSERT_TRUE(probe.ok());
  EXPECT_NE(probe->find("-> Project b, a  (est."), std::string::npos)
      << *probe;
  EXPECT_NE(probe->find("-> Filter a = 5  (est."), std::string::npos)
      << *probe;
  EXPECT_NE(probe->find("-> IndexScan on t via idx_t_a (eq prefix 1)  (est."),
            std::string::npos)
      << *probe;

  auto join = ExplainAnalyzeSql(
      db_,
      "SELECT t.b, COUNT(*) FROM d, t WHERE t.b = d.k AND d.v < 3 "
      "GROUP BY t.b ORDER BY t.b LIMIT 2");
  ASSERT_TRUE(join.ok());
  EXPECT_NE(join->find("-> Limit 2 rows  (est."), std::string::npos) << *join;
  EXPECT_NE(join->find("-> Sort by slot 0  (est."), std::string::npos)
      << *join;
  EXPECT_NE(join->find("-> HashAggregate group by t.b  (est."),
            std::string::npos)
      << *join;
  EXPECT_NE(join->find("-> SeqScan on d  (est."), std::string::npos) << *join;
  EXPECT_NE(join->find("-> SeqScan on t  (est."), std::string::npos) << *join;
  // After execution the hash join names the side it hashed: the 3 rows
  // of d, not the 30,000 of t.
  EXPECT_NE(join->find("to t on b = d.k (hashed outer, 3 rows)  (est."),
            std::string::npos)
      << *join;

  auto probed = ExplainAnalyzeSql(
      db_, "SELECT d.v, t.b FROM d, t WHERE d.k = 1 AND t.a = 2");
  ASSERT_TRUE(probed.ok());
  EXPECT_NE(probed->find("-> IndexNestedLoopJoin to t  (est."),
            std::string::npos)
      << *probed;
  auto cross = ExplainAnalyzeSql(
      db_, "SELECT d.v, t.a FROM d, t WHERE d.k = 1 AND t.b = 2");
  ASSERT_TRUE(cross.ok());
  EXPECT_NE(cross->find("-> NestedLoopJoin to t (cartesian)  (est."),
            std::string::npos)
      << *cross;
}

TEST_F(ExplainTest, HashedSideShownOnlyAfterExecution) {
  // Three-way join: the second hash join's outer side is the 3,000-row
  // result of the first, its inner side the 100 rows of d2, so it hashes
  // the inner side. The first join hashes its 100-row outer side.
  CheckOk(db_.CreateTable("d2", Schema({{"k2", ValueType::kInt},
                                        {"w", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i))});
  }
  ASSERT_TRUE(db_.BulkInsert("d2", std::move(rows)).ok());
  db_.Analyze();
  const std::string sql =
      "SELECT d2.w FROM d, t, d2 WHERE t.b = d.k AND t.a < 3000 AND "
      "d2.k2 = t.b";
  auto out = ExplainAnalyzeSql(db_, sql);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("(hashed outer, 100 rows)"), std::string::npos)
      << *out;
  EXPECT_NE(out->find("(hashed inner, 100 rows)"), std::string::npos)
      << *out;
  // Plain EXPLAIN renders the planner's choice and executes nothing.
  auto plan = ExplainSql(db_, sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("hash join to"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("hashed"), std::string::npos) << *plan;
}

TEST_F(ExplainTest, AnalyzeExecutesWriteStatements) {
  // EXPLAIN ANALYZE on an UPDATE really runs it — the mutation sticks and
  // the rendered pipeline is the write's row-location plan.
  auto out = ExplainAnalyzeSql(db_, "UPDATE t SET b = 777 WHERE a = 9");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("measured cost:"), std::string::npos) << *out;
  auto check = db_.Execute("SELECT b FROM t WHERE a = 9");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].AsInt(), 777);
}

TEST_F(ExplainTest, AnalyzeInsertFallsBackToLogicalShape) {
  auto out = ExplainAnalyzeSql(db_, "INSERT INTO t VALUES (90001, 2)");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("insert into t"), std::string::npos) << *out;
  EXPECT_NE(out->find("measured cost:"), std::string::npos) << *out;
}

TEST_F(ExplainTest, AnalyzeErrorsPropagate) {
  EXPECT_FALSE(ExplainAnalyzeSql(db_, "SELEC nope").ok());
  EXPECT_FALSE(ExplainAnalyzeSql(db_, "SELECT a FROM missing").ok());
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(ExplainSql(db_, "SELEC nope").ok());
  auto missing = ExplainSql(db_, "SELECT a FROM missing");
  ASSERT_TRUE(missing.ok());  // parses fine; planning fails in the text
  EXPECT_NE(missing->find("error"), std::string::npos);
}

}  // namespace
}  // namespace autoindex
