// What-if cost model: pricing configurations without building indexes, and
// agreement in *direction* with measured execution costs.

#include <gtest/gtest.h>

#include <utility>

#include "engine/database.h"
#include "engine/planner.h"
#include "sql/parser.h"

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

}  // namespace
}  // namespace autoindex
