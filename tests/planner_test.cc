// Planner unit tests: condition extraction, access-path choice, join
// ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "engine/planner.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace autoindex {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto big = catalog_.CreateTable("big", Schema({{"a", ValueType::kInt},
                                                   {"b", ValueType::kInt},
                                                   {"c", ValueType::kInt}}));
    ASSERT_TRUE(big.ok());
    for (int i = 0; i < 50000; ++i) {
      ASSERT_TRUE((*big)
                      ->Insert({Value(int64_t(i)), Value(int64_t(i % 500)),
                                Value(int64_t(i % 5))})
                      .ok());
    }
    auto small = catalog_.CreateTable(
        "small", Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}}));
    ASSERT_TRUE(small.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*small)->Insert({Value(int64_t(i)), Value(int64_t(i))}).ok());
    }
    stats_ = std::make_unique<StatsManager>(&catalog_);
    planner_ = std::make_unique<Planner>(&catalog_, stats_.get());
  }

  SelectStatement& Select(const std::string& sql) {
    stmt_ = std::make_unique<Statement>();
    auto parsed = ParseSql(sql);
    EXPECT_TRUE(parsed.ok()) << sql;
    *stmt_ = std::move(*parsed);
    return *stmt_->select;
  }

  IndexStatsView View(const IndexDef& def, size_t entries) {
    IndexStatsView v;
    v.def = def;
    v.num_entries = entries;
    v.height = EstimateIndexHeight(entries, 8 * def.columns.size());
    v.size_bytes = EstimateIndexBytes(entries, 8 * def.columns.size());
    return v;
  }

  Catalog catalog_;
  std::unique_ptr<StatsManager> stats_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<Statement> stmt_;
};

TEST_F(PlannerTest, ExtractsLiteralConditions) {
  SelectStatement& s =
      Select("SELECT a FROM big WHERE a = 5 AND b > 10 AND c <= 3");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  ASSERT_EQ(conds.size(), 3u);
  EXPECT_EQ(conds[0].kind, ColumnCondition::kEq);
  EXPECT_EQ(conds[1].kind, ColumnCondition::kRangeLo);
  EXPECT_FALSE(conds[1].inclusive);
  EXPECT_EQ(conds[2].kind, ColumnCondition::kRangeHi);
  EXPECT_TRUE(conds[2].inclusive);
}

TEST_F(PlannerTest, SwappedLiteralNormalized) {
  SelectStatement& s = Select("SELECT a FROM big WHERE 5 = a AND 10 < b");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0].kind, ColumnCondition::kEq);
  EXPECT_EQ(conds[1].kind, ColumnCondition::kRangeLo);
}

TEST_F(PlannerTest, BetweenSplitsIntoTwoRanges) {
  SelectStatement& s = Select("SELECT a FROM big WHERE b BETWEEN 3 AND 9");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0].kind, ColumnCondition::kRangeLo);
  EXPECT_EQ(conds[1].kind, ColumnCondition::kRangeHi);
}

TEST_F(PlannerTest, JoinConditionRecognized) {
  SelectStatement& s = Select(
      "SELECT big.a FROM small, big WHERE big.b = small.k AND big.c = 1");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big",
                                           {TableRef("small")});
  ASSERT_EQ(conds.size(), 2u);
  bool has_join = false;
  for (const auto& c : conds) {
    if (c.join_source.has_value()) {
      has_join = true;
      EXPECT_EQ(c.column, "b");
      EXPECT_EQ(c.join_source->table, "small");
    }
  }
  EXPECT_TRUE(has_join);
}

TEST_F(PlannerTest, UnqualifiedJoinColumnsRecognized) {
  // Regression: TPC-DS-style queries use unqualified join columns
  // (ss_item_sk = i_item_sk); these must still become join conditions, or
  // joins silently degrade to cartesian products.
  SelectStatement& s = Select(
      "SELECT a FROM small, big WHERE b = k AND c = 1");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big",
                                           {TableRef("small")});
  bool has_join = false;
  for (const auto& c : conds) {
    if (c.join_source.has_value()) {
      has_join = true;
      EXPECT_EQ(c.column, "b");
      EXPECT_EQ(c.join_source->column, "k");
    }
  }
  EXPECT_TRUE(has_join);
}

TEST_F(PlannerTest, TopLevelOrYieldsNoSargableConditions) {
  SelectStatement& s = Select("SELECT a FROM big WHERE a = 1 OR b = 2");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  EXPECT_TRUE(conds.empty());
}

// An OR under the AND is one residual atom: the other conjuncts still
// reach access-path choice, and the Filter checks the OR.
TEST_F(PlannerTest, OrUnderAndLeavesOtherConjunctsSargable) {
  SelectStatement& s =
      Select("SELECT c FROM big WHERE a = 3 AND (b > 1 OR c > 2)");
  auto plan =
      planner_->PlanSelect(s, {View(IndexDef("big", {"a"}), 50000)});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->tables.size(), 1u);
  const TablePlan& tp = plan->tables[0];
  ASSERT_EQ(tp.conditions.size(), 1u);
  EXPECT_EQ(tp.conditions[0].column, "a");
  EXPECT_TRUE(tp.access.use_index);
  EXPECT_EQ(tp.access.index, IndexDef("big", {"a"}));
  EXPECT_EQ(tp.access.eq_prefix_len, 1u);
  EXPECT_LT(plan->est_result_rows, 5.0);
}

TEST_F(PlannerTest, ChoosesSelectiveIndexOverSeqScan) {
  SelectStatement& s = Select("SELECT b FROM big WHERE a = 77");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"a"}), 50000)});
  EXPECT_TRUE(decision.use_index);
  EXPECT_EQ(decision.eq_prefix_len, 1u);
  EXPECT_LT(decision.est_match_rows, 5.0);
}

TEST_F(PlannerTest, RejectsUnusableIndex) {
  SelectStatement& s = Select("SELECT b FROM big WHERE a = 77");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  // Index on (b) cannot serve an a-predicate.
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"b"}), 50000)});
  EXPECT_FALSE(decision.use_index);
}

TEST_F(PlannerTest, PrefersLongerPrefixMatch) {
  SelectStatement& s = Select("SELECT c FROM big WHERE a = 7 AND b = 100");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  auto decision = planner_->ChooseAccessPath(
      "big", conds,
      {View(IndexDef("big", {"b"}), 50000),
       View(IndexDef("big", {"a", "b"}), 50000)});
  ASSERT_TRUE(decision.use_index);
  EXPECT_EQ(decision.index.columns.size(), 2u);
  EXPECT_EQ(decision.eq_prefix_len, 2u);
}

TEST_F(PlannerTest, RangeAfterEqualityPrefix) {
  SelectStatement& s =
      Select("SELECT c FROM big WHERE b = 100 AND a > 49900");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"b", "a"}), 50000)});
  ASSERT_TRUE(decision.use_index);
  EXPECT_EQ(decision.eq_prefix_len, 1u);
  EXPECT_TRUE(decision.has_range);
}

TEST_F(PlannerTest, WeakPredicatePrefersSeqScan) {
  SelectStatement& s = Select("SELECT a FROM big WHERE c = 2");
  auto conds = planner_->ExtractConditions(s.where.get(), "big", "big", {});
  // c has 5 distinct values: 20% of a 50k-row table; random heap fetches
  // would dominate.
  auto decision = planner_->ChooseAccessPath(
      "big", conds, {View(IndexDef("big", {"c"}), 50000)});
  EXPECT_FALSE(decision.use_index);
}

TEST_F(PlannerTest, PlanSelectOrdersSmallTableFirst) {
  SelectStatement& s = Select(
      "SELECT big.a FROM big, small WHERE big.b = small.k AND small.v = 3");
  auto plan = planner_->PlanSelect(s, {});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->tables.size(), 2u);
  EXPECT_EQ(plan->tables[0].ref.table, "small");
  EXPECT_EQ(plan->tables[1].ref.table, "big");
}

TEST_F(PlannerTest, PlanSelectFailsOnUnknownTable) {
  SelectStatement& s = Select("SELECT a FROM nope");
  EXPECT_FALSE(planner_->PlanSelect(s, {}).ok());
}

TEST_F(PlannerTest, WriteLookupPlansIndexAccess) {
  auto parsed = ParseSql("UPDATE big SET c = 1 WHERE a = 5");
  ASSERT_TRUE(parsed.ok());
  auto tp = planner_->PlanWriteLookup(
      "big", parsed->update->where.get(),
      {View(IndexDef("big", {"a"}), 50000)});
  ASSERT_TRUE(tp.ok());
  EXPECT_TRUE(tp->access.use_index);
}

TEST_F(PlannerTest, ResolveColumnTableHandlesQualifiersAndProbing) {
  std::vector<TableRef> from{TableRef("big"), TableRef("small", "s")};
  EXPECT_EQ(ResolveColumnTable(ColumnRef("big", "a"), from, catalog_), 0);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("s", "k"), from, catalog_), 1);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("k"), from, catalog_), 1);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("a"), from, catalog_), 0);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("zzz"), from, catalog_), -1);
  EXPECT_EQ(ResolveColumnTable(ColumnRef("nope", "a"), from, catalog_), -1);
}

// A star schema shaped like the TPC-DS fact joins: `sales` (20,000 rows,
// physically in date order) and three dimensions, `dates` (730 rows, two
// years), `stores` (40) and `items` (1,000). Every column name is unique.
class JoinOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto create = [&](const std::string& name, std::vector<std::string> cols,
                      int rows, auto row_of) {
      std::vector<Column> schema;
      for (const std::string& c : cols) schema.push_back({c, ValueType::kInt});
      auto t = catalog_.CreateTable(name, Schema(schema));
      ASSERT_TRUE(t.ok());
      for (int64_t i = 0; i < rows; ++i) {
        ASSERT_TRUE((*t)->Insert(row_of(i)).ok());
      }
    };
    create("sales", {"date_sk", "store_sk", "item_sk", "profit"}, 20000,
           [](int64_t i) {
             return Row{Value(1 + i * 730 / 20000), Value(1 + i * 7919 % 40),
                        Value(1 + i * 104729 % 1000), Value(i % 100)};
           });
    create("dates", {"d_sk", "d_year"}, 730, [](int64_t i) {
      return Row{Value(1 + i), Value(2000 + i / 365)};
    });
    create("stores", {"st_sk", "st_state"}, 40, [](int64_t i) {
      return Row{Value(1 + i), Value((1 + i) % 6)};
    });
    create("items", {"i_sk", "i_cat"}, 1000, [](int64_t i) {
      return Row{Value(1 + i), Value((1 + i) % 7)};
    });
    stats_ = std::make_unique<StatsManager>(&catalog_);
    planner_ = std::make_unique<Planner>(&catalog_, stats_.get());
  }

  SelectStatement& Select(const std::string& sql) {
    auto parsed = ParseSql(sql);
    EXPECT_TRUE(parsed.ok()) << sql;
    stmt_ = std::make_unique<Statement>(std::move(*parsed));
    return *stmt_->select;
  }

  std::vector<IndexStatsView> Views(const std::vector<IndexDef>& defs) {
    std::vector<IndexStatsView> views;
    for (const IndexDef& def : defs) {
      IndexStatsView v;
      v.def = def;
      v.num_entries = catalog_.GetTable(def.table)->num_rows();
      v.height = EstimateIndexHeight(v.num_entries, 8 * def.columns.size());
      v.size_bytes = EstimateIndexBytes(v.num_entries, 8 * def.columns.size());
      views.push_back(v);
    }
    return views;
  }

  // The price of joining s.from left-deep in `order` (table names), by the
  // rules PlanSelect documents: each level gets ChooseAccessPath's path for
  // its conditions against the tables before it; an index level pays per
  // outer row; a join level takes the cheaper of that and a hash join over
  // a sequential scan; GROUP BY pays n log n over the joined rows.
  double PriceOrder(const SelectStatement& s,
                    const std::vector<std::string>& order,
                    const std::vector<IndexStatsView>& config) {
    std::vector<TableRef> earlier;
    double outer = 1.0;
    double total = 0.0;
    for (const std::string& name : order) {
      const TableRef ref(name);
      const HeapTable& t = *catalog_.GetTable(name);
      const std::vector<ColumnCondition> conds = planner_->ExtractConditions(
          s.where.get(), ref.table, ref.alias, earlier);
      std::vector<IndexStatsView> views;
      for (const IndexStatsView& v : config) {
        if (v.def.table == name) views.push_back(v);
      }
      const AccessDecision a = planner_->ChooseAccessPath(name, conds, views);
      double cost = a.est_cost;
      if (a.use_index) {
        const double heap = std::min(static_cast<double>(t.NumPages()),
                                     outer * a.heap_fetch_pages);
        cost = (outer * (a.descent_pages + a.leaf_pages) + heap) *
                   kRandomPageCost +
               outer * a.est_match_rows * (kCpuIndexTupleCost + kCpuTupleCost);
      }
      const bool join =
          std::any_of(conds.begin(), conds.end(), [](const ColumnCondition& c) {
            return c.join_source.has_value();
          });
      if (join) {
        const double hash = PriceHashJoin(t.NumPages(), t.num_rows(), outer);
        cost = a.use_index ? std::min(cost, hash) : hash;
      }
      total += cost;
      outer = std::max(1.0, outer * a.est_rows);
      earlier.push_back(ref);
    }
    if (!s.group_by.empty() && outer > 1.0) {
      total += outer * std::log2(outer) * kCpuOperatorCost;
    }
    return total;
  }

  static std::vector<std::string> Order(const SelectPlan& plan) {
    std::vector<std::string> order;
    for (const TablePlan& tp : plan.tables) order.push_back(tp.ref.table);
    return order;
  }

  Catalog catalog_;
  std::unique_ptr<StatsManager> stats_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<Statement> stmt_;
};

// Query 19's shape: the unfiltered 40-row `stores` is the smallest table,
// but starting there drags every `sales` row through the later joins.
TEST_F(JoinOrderTest, TinyUnfilteredDimensionDoesNotLead) {
  const SelectStatement& s = Select(
      "SELECT st_state, SUM(profit) FROM sales, items, stores, dates WHERE "
      "item_sk = i_sk AND store_sk = st_sk AND date_sk = d_sk AND i_cat = 3 "
      "AND d_year = 2001 GROUP BY st_state");
  const std::vector<IndexStatsView> config =
      Views({IndexDef("dates", {"d_year"})});
  auto plan = planner_->PlanSelect(s, config);
  ASSERT_TRUE(plan.ok());
  const std::vector<std::string> order = Order(*plan);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_NE(order[0], "stores");
  EXPECT_DOUBLE_EQ(plan->est_total_cost, PriceOrder(s, order, config));
  for (const std::vector<std::string>& stores_first :
       {std::vector<std::string>{"stores", "sales", "items", "dates"},
        std::vector<std::string>{"stores", "sales", "dates", "items"}}) {
    EXPECT_LT(plan->est_total_cost, PriceOrder(s, stores_first, config));
  }
}

// Query 15's shape: a date-range index on the fact table leads the join;
// starting at the handful of `stores` rows would scan all of `sales`.
TEST_F(JoinOrderTest, FactIndexRangeLeadsTheJoin) {
  const SelectStatement& s = Select(
      "SELECT COUNT(*) FROM sales, stores WHERE store_sk = st_sk AND "
      "st_state = 2 AND date_sk BETWEEN 100 AND 115");
  const std::vector<IndexStatsView> config =
      Views({IndexDef("sales", {"date_sk"})});
  auto plan = planner_->PlanSelect(s, config);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(Order(*plan), (std::vector<std::string>{"sales", "stores"}));
  const AccessDecision& lead = plan->tables[0].access;
  EXPECT_TRUE(lead.use_index);
  EXPECT_TRUE(lead.has_range);
  EXPECT_DOUBLE_EQ(plan->est_total_cost,
                   PriceOrder(s, Order(*plan), config));
  EXPECT_LT(plan->est_total_cost,
            PriceOrder(s, {"stores", "sales"}, config));
}

// One table plans as before: its one access path, no join figures.
TEST_F(JoinOrderTest, SingleTablePlansItsAccessPath) {
  const SelectStatement& s =
      Select("SELECT profit FROM sales WHERE date_sk BETWEEN 100 AND 115");
  const std::vector<IndexStatsView> config =
      Views({IndexDef("sales", {"date_sk"})});
  auto plan = planner_->PlanSelect(s, config);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->tables.size(), 1u);
  const TablePlan& tp = plan->tables[0];
  EXPECT_TRUE(tp.access.use_index);
  EXPECT_DOUBLE_EQ(plan->est_total_cost, tp.access.est_cost);
  EXPECT_DOUBLE_EQ(tp.est_level_cost, tp.access.est_cost);
}

}  // namespace
}  // namespace autoindex
