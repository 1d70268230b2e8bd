// Workload generators: schema shape, determinism, executability, and the
// characteristics each experiment relies on.

#include <gtest/gtest.h>

#include <set>

#include "sql/fingerprint.h"
#include "workload/banking.h"
#include "workload/epidemic.h"
#include "workload/tpcc.h"
#include "workload/tpcds.h"
#include "workload/workload.h"

namespace autoindex {
namespace {

TEST(Tpcc, PopulatesTenTables) {
  Database db;
  TpccConfig config;
  config.warehouses = 1;
  config.customers_per_district = 50;
  config.items = 200;
  config.orders_per_district = 30;
  TpccWorkload::Populate(&db, config);
  EXPECT_EQ(db.catalog().num_tables(), 9u);
  EXPECT_EQ(db.catalog().GetTable("item")->num_rows(), 200u);
  EXPECT_EQ(db.catalog().GetTable("customer")->num_rows(), 5u * 50u);
  EXPECT_EQ(db.catalog().GetTable("stock")->num_rows(), 200u);
  EXPECT_GT(db.catalog().GetTable("orderline")->num_rows(),
            db.catalog().GetTable("orders")->num_rows());
}

TEST(Tpcc, ScaleGrowsData) {
  Database db1, db10;
  TpccConfig small;
  small.warehouses = 1;
  small.customers_per_district = 20;
  small.items = 100;
  small.orders_per_district = 10;
  TpccConfig large = small;
  large.warehouses = 4;
  TpccWorkload::Populate(&db1, small);
  TpccWorkload::Populate(&db10, large);
  EXPECT_EQ(db10.catalog().GetTable("stock")->num_rows(),
            4 * db1.catalog().GetTable("stock")->num_rows());
}

TEST(Tpcc, GeneratedQueriesAllExecute) {
  Database db;
  TpccConfig config;
  config.warehouses = 1;
  config.customers_per_district = 50;
  config.items = 200;
  config.orders_per_district = 30;
  TpccWorkload::Populate(&db, config);
  TpccWorkload::CreateDefaultIndexes(&db);
  const auto queries = TpccWorkload::Generate(config, 100, 7);
  EXPECT_GT(queries.size(), 100u);  // txns expand to multiple statements
  RunMetrics metrics = RunWorkload(&db, queries);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_GT(metrics.total_cost, 0.0);
}

TEST(Tpcc, DeterministicGeneration) {
  TpccConfig config;
  const auto a = TpccWorkload::Generate(config, 50, 42);
  const auto b = TpccWorkload::Generate(config, 50, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  const auto c = TpccWorkload::Generate(config, 50, 43);
  EXPECT_NE(a[0], c[0]);
}

TEST(Tpcc, MixShiftsReadWriteRatio) {
  TpccConfig config;
  const auto writes = TpccWorkload::Generate(config, 300, 1,
                                             TpccWorkload::WriteHeavyMix());
  const auto reads = TpccWorkload::Generate(config, 300, 1,
                                            TpccWorkload::ReadHeavyMix());
  auto count_writes = [](const std::vector<std::string>& qs) {
    size_t n = 0;
    for (const auto& q : qs) {
      if (q.rfind("INSERT", 0) == 0 || q.rfind("UPDATE", 0) == 0 ||
          q.rfind("DELETE", 0) == 0) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GT(static_cast<double>(count_writes(writes)) / writes.size(),
            static_cast<double>(count_writes(reads)) / reads.size());
}

TEST(Tpcds, PopulatesStarSchema) {
  Database db;
  TpcdsConfig config;
  config.sales_rows = 5000;
  TpcdsWorkload::Populate(&db, config);
  EXPECT_EQ(db.catalog().num_tables(), 6u);
  EXPECT_EQ(db.catalog().GetTable("store_sales")->num_rows(), 5000u);
  EXPECT_EQ(db.catalog().GetTable("ds_item")->num_rows(),
            static_cast<size_t>(config.items));
}

TEST(Tpcds, AllTemplatesParseAndExecute) {
  Database db;
  TpcdsConfig config;
  config.sales_rows = 3000;
  config.items = 500;
  config.customers = 500;
  TpcdsWorkload::Populate(&db, config);
  TpcdsWorkload::CreateDefaultIndexes(&db);
  const auto queries = TpcdsWorkload::OneOfEach(config, 11);
  ASSERT_EQ(queries.size(),
            static_cast<size_t>(TpcdsWorkload::kNumQueryTemplates));
  RunMetrics metrics = RunWorkload(&db, queries);
  EXPECT_EQ(metrics.failed, 0u) << "some TPC-DS template failed to execute";
}

TEST(Tpcds, TemplatesHaveDistinctFingerprints) {
  TpcdsConfig config;
  Random rng(3);
  std::set<std::string> fps;
  for (int q = 0; q < TpcdsWorkload::kNumQueryTemplates; ++q) {
    fps.insert(FingerprintSql(TpcdsWorkload::Query(q, config, &rng)));
  }
  EXPECT_EQ(fps.size(),
            static_cast<size_t>(TpcdsWorkload::kNumQueryTemplates));
}

TEST(Banking, PopulatesManyTables) {
  Database db;
  BankingConfig config;
  config.num_tables = 30;
  config.hot_tables = 6;
  config.rows_hot = 500;
  config.rows_cold = 50;
  BankingWorkload::Populate(&db, config);
  EXPECT_EQ(db.catalog().num_tables(), 30u);
  EXPECT_EQ(db.catalog().GetTable(BankingWorkload::TableName(0))->num_rows(),
            500u);
  EXPECT_EQ(db.catalog().GetTable(BankingWorkload::TableName(29))->num_rows(),
            50u);
}

TEST(Banking, ManualIndexEstateIsLargeAndRedundant) {
  BankingConfig config;
  const auto defs = BankingWorkload::ManualIndexes(config);
  EXPECT_GT(defs.size(), 200u);
  // Contains at least one prefix-redundant pair.
  bool redundant = false;
  for (const IndexDef& a : defs) {
    for (const IndexDef& b : defs) {
      if (!(a == b) && a.IsPrefixOf(b)) {
        redundant = true;
        break;
      }
    }
    if (redundant) break;
  }
  EXPECT_TRUE(redundant);
}

TEST(Banking, ServicesExecute) {
  Database db;
  BankingConfig config;
  config.num_tables = 20;
  config.hot_tables = 6;
  config.rows_hot = 400;
  config.rows_cold = 40;
  BankingWorkload::Populate(&db, config);
  const auto withdraw = BankingWorkload::WithdrawalService(config, 50, 1);
  const auto summarize = BankingWorkload::SummarizationService(config, 50, 2);
  const auto hybrid = BankingWorkload::HybridService(config, 60, 3);
  EXPECT_EQ(RunWorkload(&db, withdraw).failed, 0u);
  EXPECT_EQ(RunWorkload(&db, summarize).failed, 0u);
  EXPECT_EQ(RunWorkload(&db, hybrid).failed, 0u);
  EXPECT_EQ(hybrid.size(), 60u);
}

TEST(Epidemic, PhasesHaveExpectedShape) {
  EpidemicConfig config;
  const auto w1 = EpidemicWorkload::PhaseW1(config, 100, 1);
  const auto w2 = EpidemicWorkload::PhaseW2(config, 100, 2);
  const auto w3 = EpidemicWorkload::PhaseW3(config, 100, 3);
  auto frac_prefix = [](const std::vector<std::string>& qs,
                        const char* prefix) {
    size_t n = 0;
    for (const auto& q : qs) {
      if (q.rfind(prefix, 0) == 0) ++n;
    }
    return static_cast<double>(n) / qs.size();
  };
  EXPECT_DOUBLE_EQ(frac_prefix(w1, "SELECT"), 1.0);
  EXPECT_GT(frac_prefix(w2, "INSERT"), 0.6);
  EXPECT_GT(frac_prefix(w3, "UPDATE"), 0.4);
}

TEST(Epidemic, AllPhasesExecute) {
  Database db;
  EpidemicConfig config;
  config.people = 2000;
  EpidemicWorkload::Populate(&db, config);
  EXPECT_EQ(RunWorkload(&db, EpidemicWorkload::PhaseW1(config, 40, 1)).failed,
            0u);
  EXPECT_EQ(RunWorkload(&db, EpidemicWorkload::PhaseW2(config, 40, 2)).failed,
            0u);
  EXPECT_EQ(RunWorkload(&db, EpidemicWorkload::PhaseW3(config, 40, 3)).failed,
            0u);
}

TEST(Runner, MetricsAreConsistent) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt}})));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
  }
  std::vector<double> per_query;
  RunMetrics m = RunWorkload(
      &db, {"SELECT COUNT(*) FROM t", "SELECT a FROM t WHERE a = 5"},
      &per_query);
  EXPECT_EQ(m.queries, 2u);
  EXPECT_EQ(m.failed, 0u);
  ASSERT_EQ(per_query.size(), 2u);
  EXPECT_NEAR(per_query[0] + per_query[1], m.total_cost, 1e-9);
  EXPECT_GT(m.Throughput(), 0.0);
  EXPECT_GT(m.AvgLatency(), 0.0);
}

TEST(Runner, FailedQueriesCounted) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt}})));
  RunMetrics m = RunWorkload(&db, {"SELECT a FROM missing_table"});
  EXPECT_EQ(m.failed, 1u);
}

}  // namespace
}  // namespace autoindex
