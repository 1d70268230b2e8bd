// EXPLAIN output: plan rendering reflects the planner's actual choices,
// and EXPLAIN renders the same operator tree EXPLAIN ANALYZE runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/manager.h"
#include "core/query_template.h"
#include "engine/explain.h"
#include "sql/parser.h"
#include "workload/banking.h"
#include "workload/tpcc.h"
#include "workload/tpcds.h"
#include "workload/workload.h"

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
  EXPECT_NE(plan->find("SeqScan on t"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("estimated total cost"), std::string::npos);
}

TEST_F(ExplainTest, IndexScanWhenAvailable) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto plan = ExplainSql(db_, "SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan on t via idx_t_a (eq prefix 1)"),
            std::string::npos)
      << *plan;
}

TEST_F(ExplainTest, HashJoinRendered) {
  auto plan = ExplainSql(
      db_, "SELECT t.b FROM d, t WHERE t.a = d.k AND d.v = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("HashJoin to t"), std::string::npos) << *plan;
}

TEST_F(ExplainTest, SortAndAggregateMarkers) {
  auto plan = ExplainSql(
      db_, "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("HashAggregate"), std::string::npos);
  EXPECT_NE(plan->find("Sort"), std::string::npos);
}

TEST_F(ExplainTest, WhatIfConfigOverridesBuilt) {
  // No built index — but the explain under a hypothetical config shows
  // the index plan (the hypopg-style workflow).
  auto stmt = ParseSql("SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(stmt.ok());
  const IndexConfig config({IndexDef("t", {"a"})});
  auto plan = ExplainStatement(db_, *stmt, &config);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
}

TEST_F(ExplainTest, WriteStatements) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  auto upd = ExplainSql(db_, "UPDATE t SET b = 1 WHERE a = 5");
  ASSERT_TRUE(upd.ok());
  EXPECT_NE(upd->find("update rows"), std::string::npos);
  EXPECT_NE(upd->find("IndexScan"), std::string::npos);
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
  EXPECT_NE(plan->find("HashJoin to"), std::string::npos) << *plan;
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
  // Parses fine; planning fails, and so does the EXPLAIN.
  EXPECT_FALSE(ExplainSql(db_, "SELECT a FROM missing").ok());
}

// An unqualified probe key the joined table shadows: `v` in `r.k = v`
// resolves to r.v at r's level, so no index on r(k) can be probed with it
// and the level runs a hash join. The plan prices that hash join, not the
// index path, and EXPLAIN shows no operator priced at the index's figure.
TEST(ShadowedProbeKey, PlanPricesTheHashJoinThatRuns) {
  Database db;
  for (const char* name : {"l", "r"}) {
    CheckOk(db.CreateTable(name, Schema({{"k", ValueType::kInt},
                                         {"v", ValueType::kInt}})));
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20000; ++i) {
      rows.push_back({Value(i), Value(i % 1000)});
    }
    ASSERT_TRUE(db.BulkInsert(name, std::move(rows)).ok());
  }
  ASSERT_TRUE(db.CreateIndex(IndexDef("r", {"k"})).ok());
  db.Analyze();
  auto parsed = ParseSql("SELECT l.k, r.k FROM l, r WHERE l.k = 3 AND r.k = v");
  ASSERT_TRUE(parsed.ok());
  StatusOr<std::unique_ptr<PhysicalPlan>> planned =
      db.executor().PlanSelect(*parsed->select, nullptr);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const SelectPlan& plan = (*planned)->logical;
  ASSERT_EQ(plan.tables.size(), 2u);
  EXPECT_EQ(plan.tables[1].ref.table, "r");
  EXPECT_FALSE(plan.tables[1].access.use_index);
  const HeapTable& l = *db.catalog().GetTable("l");
  const HeapTable& r = *db.catalog().GetTable("r");
  EXPECT_DOUBLE_EQ(plan.est_total_cost,
                   SeqScanAccess(l, 0.0).est_cost +
                       PriceHashJoin(r.NumPages(), r.num_rows(),
                                     plan.tables[0].est_level_rows));
  EXPECT_NEAR(plan.est_total_cost, 598.0, 0.05);

  auto explain = ExplainStatement(db, *parsed);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("HashJoin to r"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("IndexScan"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("cost 315.0"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("estimated total cost: 598.0"), std::string::npos)
      << *explain;
}

// --- one plan, one tree -------------------------------------------------

// The operator lines of an EXPLAIN or EXPLAIN ANALYZE text: the measured
// "(actual: ...)" suffix and HashJoin's post-run "(hashed ...)" note are
// cut, the write line above an UPDATE/DELETE lookup is dropped, and the
// tree is re-indented to start at column 0.
std::vector<std::string> TreeLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  size_t indent = std::string::npos;
  while (std::getline(in, line)) {
    const size_t arrow = line.find("-> ");
    if (arrow == std::string::npos) continue;
    const std::string body = line.substr(arrow);
    if (body == "-> update rows" || body == "-> delete rows") continue;
    const size_t actual = line.find("  (actual: ");
    if (actual != std::string::npos) line.resize(actual);
    const size_t hashed = line.find(" (hashed ");
    if (hashed != std::string::npos) {
      line.erase(hashed, line.find(')', hashed) + 1 - hashed);
    }
    indent = std::min(indent, arrow);
    lines.push_back(std::move(line));
  }
  for (std::string& l : lines) l.erase(0, indent);
  return lines;
}

// (b): the executed SELECT's operators carry its plan's figures. The root
// costs est_total_cost, each join node (and the leftmost scan) its
// level's rows and cumulative cost, and an inner SeqScan its own
// sequential-scan figures, never a dropped index path's.
void ExpectPlanFigures(Database* db, const Statement& stmt) {
  StatusOr<std::unique_ptr<PhysicalPlan>> planned =
      db->executor().PlanSelect(*stmt.select, nullptr);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const SelectPlan& plan = (*planned)->logical;
  StatusOr<ExecResult> result = db->Execute(stmt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PlanNodeSnapshot* node = result->plan.get();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->est_cost, plan.est_total_cost);
  while (node->children.size() == 1) node = &node->children[0];
  for (size_t level = plan.tables.size(); level-- > 0;) {
    const TablePlan& tp = plan.tables[level];
    SCOPED_TRACE("level " + std::to_string(level) + " (" + tp.ref.alias +
                 "): " + node->op);
    EXPECT_EQ(node->est_rows, tp.est_level_rows);
    EXPECT_EQ(node->est_cost, tp.est_level_cost);
    if (level == 0) {
      EXPECT_TRUE(node->children.empty());
      break;
    }
    ASSERT_EQ(node->children.size(), 2u);
    const PlanNodeSnapshot& inner = node->children[1];
    if (inner.op == "SeqScan") {
      const HeapTable& table = *db->catalog().GetTable(tp.ref.table);
      const AccessDecision seq = SeqScanAccess(table, tp.access.est_rows);
      EXPECT_EQ(inner.est_rows, seq.est_rows);
      EXPECT_EQ(inner.est_cost, seq.est_cost);
    }
    node = &node->children[0];
  }
}

// For every template of `queries`: (a) EXPLAIN's tree is EXPLAIN
// ANALYZE's, estimates included, and (b) the executed SELECT carries its
// plan's figures. Run on the current indexes, then again once an
// AutoIndex round has tuned them.
void ExpectOnePlanOneTree(Database* db,
                          const std::vector<std::string>& queries) {
  TemplateStore store(5000);
  for (const std::string& sql : queries) {
    ASSERT_NE(store.Observe(sql), nullptr) << sql;
  }
  auto check_all = [&](const std::string& config) {
    for (const QueryTemplate* t : store.TemplatesByFrequency()) {
      const Statement& stmt = t->representative;
      SCOPED_TRACE(stmt.ToString() + " on the " + config + " indexes");
      StatusOr<std::string> explain = ExplainStatement(*db, stmt);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      StatusOr<std::string> analyze = ExplainAnalyzeStatement(*db, stmt);
      ASSERT_TRUE(analyze.ok()) << analyze.status().ToString();
      EXPECT_EQ(TreeLines(*explain), TreeLines(*analyze))
          << *explain << "\n" << *analyze;
      if (stmt.kind == StatementKind::kSelect) {
        ExpectPlanFigures(db, stmt);
      }
    }
  };
  check_all("default");
  AutoIndexConfig config;
  config.mcts.iterations = 80;
  config.mcts.patience = 40;
  config.learn_cost_model = false;
  AutoIndexManager manager(db, config);
  RunWorkloadObserved(&manager, queries);
  const TuningResult round = manager.RunManagementRound();
  EXPECT_TRUE(round.apply_errors.empty());
  check_all("tuned");
}

TEST(OnePlanOneTree, Tpcds) {
  Database db;
  TpcdsConfig config;
  config.sales_rows = 6000;
  config.items = 600;
  config.customers = 500;
  config.dates = 365;
  config.promotions = 50;
  TpcdsWorkload::Populate(&db, config);
  TpcdsWorkload::CreateDefaultIndexes(&db);
  ExpectOnePlanOneTree(&db, TpcdsWorkload::OneOfEach(config, 7));
}

TEST(OnePlanOneTree, Tpcc) {
  Database db;
  TpccConfig config;
  config.customers_per_district = 60;
  config.items = 300;
  config.orders_per_district = 40;
  TpccWorkload::Populate(&db, config);
  TpccWorkload::CreateDefaultIndexes(&db);
  ExpectOnePlanOneTree(&db, TpccWorkload::Generate(config, 400, 7));
}

TEST(OnePlanOneTree, Banking) {
  Database db;
  BankingConfig config;
  config.num_tables = 24;
  config.hot_tables = 6;
  config.rows_hot = 400;
  config.rows_cold = 40;
  config.manual_indexes = 40;
  BankingWorkload::Populate(&db, config);
  BankingWorkload::CreateManualIndexes(&db, config);
  ExpectOnePlanOneTree(&db, BankingWorkload::HybridService(config, 400, 7));
}

}  // namespace
}  // namespace autoindex
