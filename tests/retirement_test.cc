// The diagnosis-driven retirement pass (Fig. 1 behaviour): dead/redundant
// indexes are dropped when unused and cost-neutral; live ones survive.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/manager.h"
#include "workload/workload.h"

namespace autoindex {
namespace {

class RetirementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("hot", Schema({{"a", ValueType::kInt},
                                           {"b", ValueType::kInt}})));
    CheckOk(db_.CreateTable("cold", Schema({{"x", ValueType::kInt},
                                            {"y", ValueType::kInt}})));
    std::vector<Row> rows;
    Random rng(99);
    for (int i = 0; i < 20000; ++i) {
      // a is non-unique (2000 distinct) so multi-column indexes genuinely
      // beat the single-column prefix; b is independent of a.
      rows.push_back({Value(int64_t(i % 2000)),
                      Value(rng.UniformInt(0, 49))});
    }
    ASSERT_TRUE(db_.BulkInsert("hot", std::move(rows)).ok());
    rows.clear();
    for (int i = 0; i < 5000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 10))});
    }
    ASSERT_TRUE(db_.BulkInsert("cold", std::move(rows)).ok());
    db_.Analyze();
  }

  static AutoIndexConfig FastConfig() {
    AutoIndexConfig config;
    config.mcts.iterations = 60;
    config.learn_cost_model = false;
    return config;
  }

  bool Built(const IndexDef& def) {
    return db_.index_manager().HasIndex(def);
  }

  Database db_;
};

TEST_F(RetirementTest, DropsIndexOnUntouchedTable) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("cold", {"x"})).ok());
  AutoIndexManager manager(&db_, FastConfig());
  // Workload only touches `hot`.
  for (int i = 0; i < 50; ++i) {
    CheckOk(manager.ExecuteAndObserve("SELECT b FROM hot WHERE a = " +
                                      std::to_string(i * 17 % 20000)));
  }
  manager.RunManagementRound();
  EXPECT_FALSE(Built(IndexDef("cold", {"x"})))
      << "dead index must be retired";
}

TEST_F(RetirementTest, KeepsIndexThePlannerUses) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("hot", {"a"})).ok());
  AutoIndexManager manager(&db_, FastConfig());
  for (int i = 0; i < 50; ++i) {
    CheckOk(manager.ExecuteAndObserve("SELECT b FROM hot WHERE a = " +
                                      std::to_string(i * 17 % 2000)));
  }
  manager.RunManagementRound();
  EXPECT_TRUE(Built(IndexDef("hot", {"a"})));
}

TEST_F(RetirementTest, DropsPrefixShadowedIndex) {
  // (a) is shadowed by (a,b): the planner prefers the wider one for a+b
  // queries, and (a,b) also serves plain a-lookups.
  ASSERT_TRUE(db_.CreateIndex(IndexDef("hot", {"a"})).ok());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("hot", {"a", "b"})).ok());
  AutoIndexManager manager(&db_, FastConfig());
  for (int i = 0; i < 60; ++i) {
    CheckOk(manager.ExecuteAndObserve(
        "SELECT b FROM hot WHERE a = " + std::to_string(i * 31 % 2000) +
        " AND b = " + std::to_string(i % 50)));
  }
  manager.RunManagementRound();
  EXPECT_TRUE(Built(IndexDef("hot", {"a", "b"})));
  EXPECT_FALSE(Built(IndexDef("hot", {"a"})))
      << "prefix-shadowed index should be retired";
}

TEST_F(RetirementTest, RetirementPassAloneDropsDeadIndex) {
  // With zero MCTS iterations, the search cannot remove anything; only
  // the retirement pass can, so the dead index going isolates the pass.
  Database db;
  CheckOk(db.CreateTable("hot", Schema({{"a", ValueType::kInt}})));
  CheckOk(db.CreateTable("cold", Schema({{"x", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back({Value(int64_t(i))});
  ASSERT_TRUE(db.BulkInsert("hot", std::move(rows)).ok());
  rows.clear();
  for (int i = 0; i < 5000; ++i) rows.push_back({Value(int64_t(i))});
  ASSERT_TRUE(db.BulkInsert("cold", std::move(rows)).ok());
  db.Analyze();
  ASSERT_TRUE(db.CreateIndex(IndexDef("cold", {"x"})).ok());

  AutoIndexConfig config = FastConfig();
  config.mcts.iterations = 0;
  AutoIndexManager manager(&db, config);
  for (int i = 0; i < 30; ++i) {
    CheckOk(manager.ExecuteAndObserve("SELECT a FROM hot WHERE a = 5"));
  }
  manager.RunManagementRound();
  EXPECT_FALSE(db.index_manager().HasIndex(IndexDef("cold", {"x"})));
}

TEST_F(RetirementTest, FreshlyAddedIndexSurvivesItsOwnRound) {
  AutoIndexManager manager(&db_, FastConfig());
  for (int i = 0; i < 50; ++i) {
    CheckOk(manager.ExecuteAndObserve("SELECT b FROM hot WHERE a = " +
                                      std::to_string(i * 17 % 20000)));
  }
  TuningResult tuning = manager.RunManagementRound();
  ASSERT_FALSE(tuning.added.empty());
  for (const IndexDef& def : tuning.added) {
    EXPECT_TRUE(Built(def)) << def.DisplayName();
  }
  // And it survives the immediately following round too (it is now
  // cost-positive for the remembered workload).
  manager.RunManagementRound();
  for (const IndexDef& def : tuning.added) {
    EXPECT_TRUE(Built(def)) << def.DisplayName();
  }
}

}  // namespace
}  // namespace autoindex
