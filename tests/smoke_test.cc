// End-to-end smoke test: the epidemic scenario from Fig. 2 driven through
// the full AutoIndex stack. If this passes, the substrate and the core
// pipeline are wired correctly.

#include <gtest/gtest.h>

#include "core/manager.h"
#include "workload/epidemic.h"
#include "workload/workload.h"

namespace autoindex {
namespace {

TEST(Smoke, EpidemicScenarioEndToEnd) {
  Database db;
  EpidemicConfig config;
  EpidemicWorkload::Populate(&db, config);
  ASSERT_NE(db.catalog().GetTable("people"), nullptr);
  EXPECT_EQ(db.catalog().GetTable("people")->num_rows(), 20000u);

  AutoIndexConfig ai_config;
  ai_config.mcts.iterations = 80;
  ai_config.learn_cost_model = false;
  AutoIndexManager manager(&db, ai_config);

  // Phase W1: read-heavy. AutoIndex should recommend indexes.
  std::vector<std::string> w1 = EpidemicWorkload::PhaseW1(config, 200, 1);
  RunMetrics before = RunWorkloadObserved(&manager, w1);
  EXPECT_EQ(before.failed, 0u);
  EXPECT_GT(before.total_cost, 0.0);

  TuningResult tuning = manager.RunManagementRound();
  EXPECT_GT(tuning.candidates_generated, 0u);
  EXPECT_FALSE(tuning.added.empty());

  // The same workload must get cheaper with the recommended indexes.
  std::vector<std::string> w1b = EpidemicWorkload::PhaseW1(config, 200, 2);
  RunMetrics after = RunWorkload(&db, w1b);
  EXPECT_EQ(after.failed, 0u);
  EXPECT_LT(after.total_cost, before.total_cost * 0.8)
      << "indexes should reduce W1 cost substantially";
}

TEST(Smoke, BasicSqlRoundTrip) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                      {"b", ValueType::kInt},
                                      {"c", ValueType::kString}})));
  for (int i = 0; i < 100; ++i) {
    auto r = db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                        std::to_string(i % 10) + ", 'x" +
                        std::to_string(i) + "')");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto rows = db.Execute("SELECT a FROM t WHERE b = 3 ORDER BY a");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 10u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 3);
  EXPECT_EQ(rows->rows[9][0].AsInt(), 93);

  auto agg = db.Execute("SELECT COUNT(*), MAX(a) FROM t WHERE b < 5");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0][0].AsInt(), 50);
  EXPECT_EQ(agg->rows[0][1].AsInt(), 94);

  auto upd = db.Execute("UPDATE t SET b = 99 WHERE a = 42");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->stats.rows_returned, 1u);

  auto del = db.Execute("DELETE FROM t WHERE b = 99");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->stats.rows_returned, 1u);

  auto count = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 99);
}

TEST(Smoke, IndexChangesMeasuredCost) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                      {"b", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
  }
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());
  db.Analyze();

  auto no_index = db.Execute("SELECT b FROM t WHERE a = 12345");
  ASSERT_TRUE(no_index.ok());
  const double cost_scan = no_index->stats.ToCost().Total();
  EXPECT_FALSE(no_index->stats.used_index);

  ASSERT_TRUE(db.CreateIndex(IndexDef("t", {"a"})).ok());
  auto with_index = db.Execute("SELECT b FROM t WHERE a = 12345");
  ASSERT_TRUE(with_index.ok());
  EXPECT_TRUE(with_index->stats.used_index);
  const double cost_index = with_index->stats.ToCost().Total();
  EXPECT_LT(cost_index, cost_scan / 10.0);
  ASSERT_EQ(with_index->rows.size(), 1u);
  EXPECT_EQ(with_index->rows[0][0].AsInt(), 12345 % 100);
}

}  // namespace
}  // namespace autoindex
