// Cost-model property tests: monotonicity and sanity invariants the
// estimator must satisfy regardless of parameters.

#include <gtest/gtest.h>

#include <cmath>

#include "engine/database.h"
#include "sql/parser.h"
#include "util/random.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

class CostPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt}})));
    Random rng(GetParam() * 31 + 7);
    std::vector<Row> rows;
    const int n = 10000 + static_cast<int>(rng.Uniform(30000));
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value(int64_t(i)),
                      Value(rng.UniformInt(0, 500)),
                      Value(rng.UniformInt(0, 20))});
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

TEST_P(CostPropertyTest, NarrowerRangeNeverCostsMore) {
  // Under any config, shrinking a range predicate cannot raise the
  // estimated cost.
  const IndexConfig configs[] = {
      IndexConfig(), IndexConfig({IndexDef("t", {"a"})}),
      IndexConfig({IndexDef("t", {"b", "a"})})};
  Random rng(GetParam());
  for (const IndexConfig& config : configs) {
    const int lo = static_cast<int>(rng.Uniform(5000));
    const int wide = lo + 5000;
    const int narrow = lo + 100;
    const double wide_cost = db_.WhatIfCost(
        Parse(StrFormat("SELECT b FROM t WHERE a BETWEEN %d AND %d", lo,
                        wide)),
        config).Total();
    const double narrow_cost = db_.WhatIfCost(
        Parse(StrFormat("SELECT b FROM t WHERE a BETWEEN %d AND %d", lo,
                        narrow)),
        config).Total();
    EXPECT_LE(narrow_cost, wide_cost * 1.0001);
  }
}

TEST_P(CostPropertyTest, MoreIndexesNeverRaiseReadEstimate) {
  // Adding an index can only give the planner more options: the estimated
  // read cost must be monotonically non-increasing in the config.
  const Statement q =
      Parse("SELECT c FROM t WHERE a = 123 AND b = 7");
  IndexConfig config;
  double prev = db_.WhatIfCost(q, config).Total();
  const IndexDef ladder[] = {IndexDef("t", {"c"}), IndexDef("t", {"b"}),
                             IndexDef("t", {"a"}),
                             IndexDef("t", {"a", "b"})};
  for (const IndexDef& def : ladder) {
    config.Add(def);
    const double cost = db_.WhatIfCost(q, config).Total();
    EXPECT_LE(cost, prev * 1.0001) << def.DisplayName();
    prev = cost;
  }
}

TEST_P(CostPropertyTest, MoreIndexesNeverLowerWriteMaintenance) {
  const Statement ins = Parse("INSERT INTO t VALUES (1, 2, 3)");
  IndexConfig config;
  double prev = db_.WhatIfCost(ins, config).Total();
  const IndexDef ladder[] = {IndexDef("t", {"a"}), IndexDef("t", {"b"}),
                             IndexDef("t", {"a", "b", "c"})};
  for (const IndexDef& def : ladder) {
    config.Add(def);
    const double cost = db_.WhatIfCost(ins, config).Total();
    EXPECT_GE(cost, prev * 0.9999) << def.DisplayName();
    prev = cost;
  }
}

TEST_P(CostPropertyTest, EstimatesAreFiniteAndNonNegative) {
  Random rng(GetParam() * 7);
  const IndexConfig config({IndexDef("t", {"a"}), IndexDef("t", {"b"})});
  for (int i = 0; i < 50; ++i) {
    const int v = static_cast<int>(rng.Uniform(40000));
    // Prefix/suffix pairs rather than format strings: an indexed format
    // would be non-literal, which -Wformat=2 rightly rejects.
    const std::pair<const char*, const char*> shapes[] = {
        {"SELECT b FROM t WHERE a = ", ""},
        {"SELECT COUNT(*) FROM t WHERE b > ", ""},
        {"UPDATE t SET c = 1 WHERE a = ", ""},
        {"DELETE FROM t WHERE b = ", ""},
        {"SELECT b, COUNT(*) FROM t WHERE a < ", " GROUP BY b"},
    };
    const Statement q =
        Parse(StrCat(shapes[i % 5].first, v, shapes[i % 5].second));
    const CostBreakdown cost = db_.WhatIfCost(q, config);
    EXPECT_TRUE(std::isfinite(cost.Total()));
    EXPECT_GE(cost.data, 0.0);
    EXPECT_GE(cost.maint_io, 0.0);
    EXPECT_GE(cost.maint_cpu, 0.0);
  }
}

TEST_P(CostPropertyTest, MeasuredAndEstimatedAgreeOnIndexDirection) {
  // For a selective point query, both the estimate and the measurement
  // must agree that the index config is cheaper.
  Random rng(GetParam() * 13 + 1);
  const int v = static_cast<int>(rng.Uniform(10000));
  const std::string sql = StrFormat("SELECT b FROM t WHERE a = %d", v);
  const Statement q = Parse(sql);

  const double est_before = db_.WhatIfCost(q, IndexConfig()).Total();
  auto run_before = db_.Execute(sql);
  ASSERT_TRUE(run_before.ok());

  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  const double est_after = db_.WhatIfCost(q, db_.CurrentConfig()).Total();
  auto run_after = db_.Execute(sql);
  ASSERT_TRUE(run_after.ok());

  EXPECT_LT(est_after, est_before);
  EXPECT_LT(run_after->stats.ToCost().Total(),
            run_before->stats.ToCost().Total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostPropertyTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace autoindex
