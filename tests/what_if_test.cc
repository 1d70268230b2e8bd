// What-if cost model: pricing configurations without building indexes, and
// agreement in *direction* with measured execution costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_gen.h"
#include "core/query_template.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "util/random.h"
#include "workload/banking.h"
#include "workload/tpcc.h"
#include "workload/tpcds.h"

namespace autoindex {
namespace {

class WhatIfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kDouble}})));
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 50)),
                      Value(i * 0.5)});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
    db_.Analyze();
  }

  Statement Parse(const std::string& sql) {
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    return std::move(*stmt);
  }

  Database db_;
};

TEST_F(WhatIfTest, ConfigOperations) {
  IndexConfig config;
  const IndexDef a("t", {"a"});
  const IndexDef b("t", {"b"});
  EXPECT_FALSE(config.Contains(a));
  config.Add(a);
  config.Add(a);  // idempotent
  EXPECT_EQ(config.defs().size(), 1u);
  config.Add(b);
  config.Remove(a);
  EXPECT_FALSE(config.Contains(a));
  EXPECT_TRUE(config.Contains(b));
}

TEST_F(WhatIfTest, StatsViewsEstimateFromTable) {
  IndexConfig config({IndexDef("t", {"a"})});
  auto views = config.ToStatsViews(db_.catalog());
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].num_entries, 30000u);
  EXPECT_GE(views[0].height, 2u);
  EXPECT_GT(views[0].size_bytes, kPageSizeBytes);
}

TEST_F(WhatIfTest, IndexLowersEstimatedPointQueryCost) {
  const Statement q = Parse("SELECT c FROM t WHERE a = 12345");
  const double without =
      db_.WhatIfCost(q, IndexConfig()).Total();
  const double with =
      db_.WhatIfCost(q, IndexConfig({IndexDef("t", {"a"})})).Total();
  EXPECT_LT(with, without / 5.0);
}

TEST_F(WhatIfTest, UselessIndexDoesNotHelpReads) {
  const Statement q = Parse("SELECT c FROM t WHERE a = 12345");
  const double without = db_.WhatIfCost(q, IndexConfig()).Total();
  const double with_b =
      db_.WhatIfCost(q, IndexConfig({IndexDef("t", {"b"})})).Total();
  EXPECT_NEAR(with_b, without, without * 0.05);
}

TEST_F(WhatIfTest, WritesChargeMaintenancePerCoveringIndex) {
  const Statement ins = Parse("INSERT INTO t VALUES (99999, 1, 2.0)");
  const CostBreakdown none = db_.WhatIfCost(ins, IndexConfig());
  const CostBreakdown one =
      db_.WhatIfCost(ins, IndexConfig({IndexDef("t", {"a"})}));
  const CostBreakdown two = db_.WhatIfCost(
      ins, IndexConfig({IndexDef("t", {"a"}), IndexDef("t", {"b"})}));
  EXPECT_GT(one.maint_cpu, none.maint_cpu);
  EXPECT_GT(two.maint_cpu, one.maint_cpu);
  EXPECT_GT(two.maint_io, one.maint_io);
}

TEST_F(WhatIfTest, UpdateOnlyChargesIndexesOnAssignedColumns) {
  const Statement upd = Parse("UPDATE t SET c = 1.5 WHERE a = 77");
  const IndexConfig config(
      {IndexDef("t", {"a"}), IndexDef("t", {"b"})});
  const CostBreakdown cost = db_.WhatIfCost(upd, config);
  // c is not indexed: no index key maintenance at all.
  EXPECT_DOUBLE_EQ(cost.maint_cpu, 0.0);

  const Statement upd_b = Parse("UPDATE t SET b = 9 WHERE a = 77");
  const CostBreakdown cost_b = db_.WhatIfCost(upd_b, config);
  EXPECT_GT(cost_b.maint_cpu, 0.0);
}

TEST_F(WhatIfTest, DeleteChargesNoIndexMaintenance) {
  const Statement del = Parse("DELETE FROM t WHERE a = 123");
  const IndexConfig config({IndexDef("t", {"a"}), IndexDef("t", {"b"})});
  const CostBreakdown cost = db_.WhatIfCost(del, config);
  EXPECT_DOUBLE_EQ(cost.maint_cpu, 0.0);
}

TEST_F(WhatIfTest, DirectionAgreesWithMeasurement) {
  // The what-if model and the executor must agree on which configuration
  // is better, even if absolute numbers differ.
  const Statement q = Parse("SELECT c FROM t WHERE a = 4242");
  const double est_without = db_.WhatIfCost(q, IndexConfig()).Total();
  auto measured_without = db_.Execute("SELECT c FROM t WHERE a = 4242");
  ASSERT_TRUE(measured_without.ok());

  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  const double est_with = db_.WhatIfCost(q, db_.CurrentConfig()).Total();
  auto measured_with = db_.Execute("SELECT c FROM t WHERE a = 4242");
  ASSERT_TRUE(measured_with.ok());

  const double m_without = measured_without->stats.ToCost().Total();
  const double m_with = measured_with->stats.ToCost().Total();
  EXPECT_LT(est_with, est_without);
  EXPECT_LT(m_with, m_without);
}

TEST_F(WhatIfTest, TotalBytesGrowsWithConfig) {
  IndexConfig small({IndexDef("t", {"a"})});
  IndexConfig large(
      {IndexDef("t", {"a"}), IndexDef("t", {"b"}), IndexDef("t", {"a", "b"})});
  EXPECT_GT(large.TotalBytes(db_.catalog()), small.TotalBytes(db_.catalog()));
}

TEST_F(WhatIfTest, CurrentConfigTracksBuiltIndexes) {
  EXPECT_TRUE(db_.CurrentConfig().defs().empty());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  EXPECT_EQ(db_.CurrentConfig().defs().size(), 1u);
  ASSERT_TRUE(db_.DropIndex("t(a)").ok());
  EXPECT_TRUE(db_.CurrentConfig().defs().empty());
}

TEST_F(WhatIfTest, JoinEstimatePrefersIndexedInner) {
  CheckOk(db_.CreateTable("d", Schema({{"k", ValueType::kInt},
                                       {"v", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i))});
  }
  ASSERT_TRUE(db_.BulkInsert("d", std::move(rows)).ok());
  db_.Analyze();
  const Statement q =
      Parse("SELECT COUNT(*) FROM t, d WHERE t.b = d.k AND t.a = 5");
  const double without = db_.WhatIfCost(q, IndexConfig()).Total();
  const double with = db_.WhatIfCost(
      q, IndexConfig({IndexDef("t", {"a"}), IndexDef("d", {"k"})})).Total();
  EXPECT_LT(with, without);
}

// A hash-partitioned table (40000 rows, 8 partitions on `region`), the
// shape on which global and local index paths price differently.
class WhatIfPartitionedTest : public WhatIfTest {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("pt", Schema({{"region", ValueType::kInt},
                                          {"k", ValueType::kInt},
                                          {"v", ValueType::kInt}})));
    ASSERT_TRUE(db_.catalog().GetTable("pt")->SetPartitioning("region", 8));
    std::vector<Row> rows;
    for (int i = 0; i < 40000; ++i) {
      rows.push_back({Value(int64_t(i % 64)), Value(int64_t(i)),
                      Value(int64_t(i % 100))});
    }
    ASSERT_TRUE(db_.BulkInsert("pt", std::move(rows)).ok());
    db_.Analyze();
  }

  // The planner's estimate for `stmt` under `config`, and whether it chose
  // an index.
  std::pair<double, bool> PlannerEstimate(const Statement& stmt,
                                          const IndexConfig& config) {
    const Planner& planner = db_.executor().planner();
    StatusOr<SelectPlan> plan = planner.PlanSelect(
        *stmt.select, config.ToStatsViews(db_.catalog()));
    EXPECT_TRUE(plan.ok());
    if (!plan.ok()) return {0.0, false};
    return {plan->est_total_cost, plan->tables[0].access.use_index};
  }
};

// With one table and no sort, the what-if total is the planner's own
// estimate: both price the access path from the same per-probe terms
// (descents × height, leaf pages, heap fetches), partition pruning
// included.
TEST_F(WhatIfPartitionedTest, SingleTableCostEqualsPlannerEstimate) {
  const IndexDef global_k("pt", {"k"}, IndexKind::kGlobal);
  const IndexDef local_k("pt", {"k"}, IndexKind::kLocal);
  const IndexDef local_region_k("pt", {"region", "k"}, IndexKind::kLocal);
  struct Case {
    std::string sql;
    IndexDef def;
    bool planner_uses_index;
  };
  const std::vector<Case> cases = {
      {"SELECT v FROM pt WHERE k = 12345", global_k, true},
      {"SELECT v FROM pt WHERE k BETWEEN 1000 AND 1400", global_k, true},
      {"SELECT v FROM pt WHERE k = 12345", local_k, true},
      {"SELECT v FROM pt WHERE region = 57 AND k = 12345", local_k, true},
      {"SELECT v FROM pt WHERE k BETWEEN 1000 AND 1400", local_k, true},
      {"SELECT v FROM pt WHERE region = 8 AND k BETWEEN 1000 AND 1400",
       local_k, true},
      {"SELECT v FROM pt WHERE region = 57 AND k = 12345", local_region_k,
       true},
      {"SELECT v FROM pt WHERE region = 8 AND k BETWEEN 1000 AND 1400",
       local_region_k, true},
      // A range over nearly every row: the index path is priced and
      // rejected in favour of the sequential scan.
      {"SELECT v FROM pt WHERE k > 100", global_k, false},
      {"SELECT v FROM pt WHERE k > 100", local_k, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql + " with " + c.def.DisplayName());
    const Statement stmt = Parse(c.sql);
    const IndexConfig config({c.def});
    const auto [planned, uses_index] = PlannerEstimate(stmt, config);
    EXPECT_EQ(uses_index, c.planner_uses_index);
    EXPECT_DOUBLE_EQ(db_.WhatIfCost(stmt, config).Total(), planned);
    // With no index, both are the same sequential scan.
    EXPECT_DOUBLE_EQ(db_.WhatIfCost(stmt, IndexConfig()).Total(),
                     PlannerEstimate(stmt, IndexConfig()).first);
  }
}

// --- one plan, one price ---------------------------------------------------

// The plan a statement is priced by under `config`: for a SELECT the
// planner's plan, for UPDATE/DELETE its write lookup, for INSERT none.
// Holds the plan's read-side price and the indexes it probes, deduplicated
// in plan order as ExecResult::indexes_used lists them.
struct PricedPlan {
  double read_cost = 0.0;
  std::vector<std::string> indexes;
};

PricedPlan PlanOf(const Database& db, const Statement& stmt,
                  const IndexConfig& config) {
  const Planner& planner = db.executor().planner();
  const std::vector<IndexStatsView> views = config.ToStatsViews(db.catalog());
  PricedPlan out;
  std::vector<TablePlan> tables;
  if (stmt.kind == StatementKind::kSelect) {
    StatusOr<SelectPlan> plan = planner.PlanSelect(*stmt.select, views);
    EXPECT_TRUE(plan.ok());
    if (!plan.ok()) return out;
    out.read_cost = plan->est_total_cost;
    tables = std::move(plan->tables);
  } else if (stmt.kind != StatementKind::kInsert) {
    const std::string& table = stmt.kind == StatementKind::kUpdate
                                   ? stmt.update->table
                                   : stmt.del->table;
    StatusOr<TablePlan> lookup =
        planner.PlanWriteLookup(table, stmt.where(), views);
    EXPECT_TRUE(lookup.ok());
    if (!lookup.ok()) return out;
    out.read_cost = lookup->access.est_cost;
    tables.push_back(std::move(*lookup));
  }
  for (const TablePlan& tp : tables) {
    if (!tp.access.use_index) continue;
    const std::string name = tp.access.index.DisplayName();
    if (std::find(out.indexes.begin(), out.indexes.end(), name) ==
        out.indexes.end()) {
      out.indexes.push_back(name);
    }
  }
  return out;
}

// Makes the built indexes exactly `defs`.
void BuildConfig(Database* db, const std::vector<IndexDef>& defs) {
  const IndexConfig target(defs);
  const IndexConfig current = db->CurrentConfig();
  for (const IndexDef& def : current.defs()) {
    if (!target.Contains(def)) {
      ASSERT_TRUE(db->DropIndex(def.Key()).ok());
    }
  }
  for (const IndexDef& def : target.defs()) {
    if (!db->HasIndex(def)) {
      ASSERT_TRUE(db->CreateIndex(def).ok());
    }
  }
}

// For every template of `queries`, under the built indexes and random
// configurations drawn from the workload's candidates:
//   - the what-if cost is the price of the plan: a SELECT's est_total_cost,
//     a write lookup's est_cost plus maintenance, nothing read for INSERT;
//   - once a configuration is built, executing the statement probes
//     exactly the indexes that plan chose.
void ExpectOnePlanOnePrice(Database* db,
                           const std::vector<std::string>& queries,
                           uint64_t seed) {
  TemplateStore store(5000);
  for (const std::string& sql : queries) {
    ASSERT_NE(store.Observe(sql), nullptr) << sql;
  }
  const std::vector<const QueryTemplate*> templates =
      store.TemplatesByFrequency();
  const IndexConfig defaults = db->CurrentConfig();
  std::vector<IndexDef> pool =
      CandidateGenerator(db).Generate(templates, defaults);
  pool.insert(pool.end(), defaults.defs().begin(), defaults.defs().end());

  Random rng(seed);
  std::vector<std::vector<IndexDef>> configs = {defaults.defs()};
  for (int i = 0; i < 6; ++i) {
    std::vector<IndexDef> defs;
    for (const IndexDef& def : pool) {
      if (rng.Bernoulli(0.3)) defs.push_back(def);
    }
    configs.push_back(std::move(defs));
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    const IndexConfig config(configs[c]);
    // Build every other configuration; the rest are only priced.
    const bool built = c % 2 == 0;
    if (built) BuildConfig(db, configs[c]);
    for (const QueryTemplate* t : templates) {
      const Statement& stmt = t->representative;
      SCOPED_TRACE(stmt.ToString() + " under config " + std::to_string(c));
      const CostBreakdown cost = db->WhatIfCost(stmt, config);
      const PricedPlan plan = PlanOf(*db, stmt, config);
      EXPECT_DOUBLE_EQ(cost.data, plan.read_cost);
      if (stmt.kind == StatementKind::kSelect) {
        EXPECT_EQ(cost.maint_io + cost.maint_cpu, 0.0);
      }
      if (!built) continue;
      StatusOr<ExecResult> result = db->Execute(stmt);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->indexes_used, plan.indexes);
    }
  }
}

TEST(OnePlanOnePrice, Tpcc) {
  Database db;
  TpccConfig config;
  config.customers_per_district = 60;
  config.items = 300;
  config.orders_per_district = 40;
  TpccWorkload::Populate(&db, config);
  TpccWorkload::CreateDefaultIndexes(&db);
  ExpectOnePlanOnePrice(&db, TpccWorkload::Generate(config, 400, 7), 21);
}

TEST(OnePlanOnePrice, Tpcds) {
  Database db;
  TpcdsConfig config;
  config.sales_rows = 6000;
  config.items = 600;
  config.customers = 500;
  config.dates = 365;
  config.promotions = 50;
  TpcdsWorkload::Populate(&db, config);
  TpcdsWorkload::CreateDefaultIndexes(&db);
  ExpectOnePlanOnePrice(&db, TpcdsWorkload::OneOfEach(config, 7), 22);
}

TEST(OnePlanOnePrice, Banking) {
  Database db;
  BankingConfig config;
  config.num_tables = 24;
  config.hot_tables = 6;
  config.rows_hot = 400;
  config.rows_cold = 40;
  config.manual_indexes = 40;
  BankingWorkload::Populate(&db, config);
  BankingWorkload::CreateManualIndexes(&db, config);
  ExpectOnePlanOnePrice(&db, BankingWorkload::HybridService(config, 400, 7),
                        23);
}

}  // namespace
}  // namespace autoindex
