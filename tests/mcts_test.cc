// MCTS index selection (Sec. IV-B): finding beneficial additions, removing
// negative indexes, respecting storage budgets, combined-index effects,
// and incremental tree reuse.

#include <gtest/gtest.h>

#include <algorithm>

#include "check/validator.h"
#include "core/benefit_estimator.h"
#include "core/greedy.h"
#include "core/mcts.h"
#include "core/query_template.h"
#include "workload/workload.h"

namespace autoindex {
namespace {

class MctsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt}})));
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 1000)),
                      Value(int64_t(i % 3))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
    db_.Analyze();
    estimator_ = std::make_unique<IndexBenefitEstimator>(&db_);
  }

  // Builds a workload model from raw SQL with weights.
  WorkloadModel MakeWorkload(
      const std::vector<std::pair<std::string, double>>& queries) {
    for (const auto& [sql, weight] : queries) {
      QueryTemplate* t = store_.Observe(sql);
      EXPECT_NE(t, nullptr) << sql;
      t->frequency = weight;
    }
    return WorkloadModel::FromTemplates(store_.TemplatesByFrequency());
  }

  Database db_;
  TemplateStore store_{1000};
  std::unique_ptr<IndexBenefitEstimator> estimator_;
};

TEST_F(MctsTest, FindsObviousIndex) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 123", 100.0}});
  MctsConfig config;
  config.iterations = 60;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult result = selector.Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  EXPECT_GT(result.best_benefit, 0.0);
  ASSERT_EQ(result.to_add.size(), 1u);
  EXPECT_TRUE(result.to_add[0] == IndexDef("t", {"a"}));
  EXPECT_TRUE(result.to_remove.empty());
}

TEST_F(MctsTest, RemovesNegativeIndexUnderWriteHeavyLoad) {
  // Index on b is never read but every insert pays to maintain it.
  WorkloadModel w = MakeWorkload(
      {{"INSERT INTO t VALUES (1, 2, 3)", 500.0},
       {"SELECT c FROM t WHERE a = 7", 5.0}});
  IndexConfig existing({IndexDef("t", {"b"})});
  MctsConfig config;
  config.iterations = 80;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult result = selector.Run(existing, {IndexDef("t", {"a"})}, w);
  const bool removed_b = std::any_of(
      result.to_remove.begin(), result.to_remove.end(),
      [](const IndexDef& d) { return d == IndexDef("t", {"b"}); });
  EXPECT_TRUE(removed_b)
      << "write-heavy workload should retire the unused index";
  EXPECT_GT(result.best_benefit, 0.0);
}

TEST_F(MctsTest, RespectsStorageBudget) {
  WorkloadModel w = MakeWorkload(
      {{"SELECT b FROM t WHERE a = 123", 50.0},
       {"SELECT a FROM t WHERE b = 5", 50.0}});
  // Budget that fits roughly one index on t (each ~30000 * 20B).
  const size_t one_index_bytes =
      IndexConfig({IndexDef("t", {"a"})}).TotalBytes(db_.catalog());
  MctsConfig config;
  config.iterations = 80;
  config.storage_budget_bytes = one_index_bytes + kPageSizeBytes;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult result = selector.Run(
      IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  EXPECT_LE(result.best_config.TotalBytes(db_.catalog()),
            config.storage_budget_bytes);
  EXPECT_LE(result.to_add.size(), 1u);
}

TEST_F(MctsTest, UnlimitedBudgetTakesBothIndexes) {
  WorkloadModel w = MakeWorkload(
      {{"SELECT b FROM t WHERE a = 123", 50.0},
       {"SELECT a FROM t WHERE b = 5", 50.0}});
  MctsConfig config;
  config.iterations = 120;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult result = selector.Run(
      IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  EXPECT_EQ(result.to_add.size(), 2u);
}

TEST_F(MctsTest, FigFourBudgetScenarioBeatsGreedyChoice) {
  // The paper's Fig. 4 situation: candidate I3 has the highest individual
  // benefit but fills the whole budget; the pair {I1, I2} fits together
  // and beats it. Greedy's top-k picks I3 and stalls; MCTS's exploration
  // must find the pair.
  CheckOk(db_.CreateTable("big1", Schema({{"w", ValueType::kString, 40},
                                          {"p", ValueType::kInt}})));
  CheckOk(db_.CreateTable("s1", Schema({{"k1", ValueType::kInt},
                                        {"v", ValueType::kInt}})));
  CheckOk(db_.CreateTable("s2", Schema({{"k2", ValueType::kInt},
                                        {"v", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 30000; ++i) {
    rows.push_back({Value("key_" + std::to_string(i)),
                    Value(int64_t(i))});
  }
  ASSERT_TRUE(db_.BulkInsert("big1", std::move(rows)).ok());
  for (const char* name : {"s1", "s2"}) {
    rows.clear();
    for (int i = 0; i < 15000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i))});
    }
    ASSERT_TRUE(db_.BulkInsert(name, std::move(rows)).ok());
  }
  db_.Analyze();

  const IndexDef i3("big1", {"w"});  // wide string key: large index
  const IndexDef i1("s1", {"k1"});
  const IndexDef i2("s2", {"k2"});
  const size_t size_i3 = IndexConfig({i3}).TotalBytes(db_.catalog());
  const size_t size_i1 = IndexConfig({i1}).TotalBytes(db_.catalog());
  ASSERT_GT(size_i3, 2 * size_i1) << "scenario needs a dominant big index";

  WorkloadModel w = MakeWorkload({
      {"SELECT p FROM big1 WHERE w = 'key_123'", 50.0},
      {"SELECT v FROM s1 WHERE k1 = 5", 78.0},
      {"SELECT v FROM s2 WHERE k2 = 9", 78.0},
  });
  // Budget: I3 alone fits; I1+I2 fit; I3 plus either small one does not.
  const size_t budget = size_i3 + kPageSizeBytes;
  ASSERT_LE(2 * size_i1, budget);
  ASSERT_GT(size_i3 + size_i1, budget);

  // Greedy (top-k individual benefit) takes the big index and stalls.
  GreedyConfig gconfig;
  gconfig.storage_budget_bytes = budget;
  IndexBenefitEstimator gest(&db_);
  GreedyResult greedy = GreedySelector(&db_, &gest, gconfig)
                            .Run(IndexConfig(), {i3, i1, i2}, w);
  ASSERT_EQ(greedy.to_add.size(), 1u);
  EXPECT_TRUE(greedy.to_add[0] == i3);

  // MCTS explores past the greedy trap and lands on {I1, I2}.
  MctsConfig config;
  config.iterations = 200;
  config.storage_budget_bytes = budget;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult result = selector.Run(IndexConfig(), {i3, i1, i2}, w);
  EXPECT_TRUE(result.best_config.Contains(i1));
  EXPECT_TRUE(result.best_config.Contains(i2));
  EXPECT_FALSE(result.best_config.Contains(i3));
  EXPECT_LT(result.best_cost, greedy.final_cost)
      << "MCTS must beat the greedy selection under the budget";
}

TEST_F(MctsTest, NoCandidatesNoChanges) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 1", 10.0}});
  MctsIndexSelector selector(&db_, estimator_.get());
  MctsResult result = selector.Run(IndexConfig(), {}, w);
  EXPECT_TRUE(result.to_add.empty());
  EXPECT_TRUE(result.to_remove.empty());
  EXPECT_DOUBLE_EQ(result.best_benefit, 0.0);
}

TEST_F(MctsTest, KeepsBeneficialExistingIndex) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 123", 100.0}});
  IndexConfig existing({IndexDef("t", {"a"})});
  MctsIndexSelector selector(&db_, estimator_.get());
  MctsResult result = selector.Run(existing, {IndexDef("t", {"b"})}, w);
  EXPECT_TRUE(result.best_config.Contains(IndexDef("t", {"a"})));
}

TEST_F(MctsTest, IncrementalRebaseReusesTree) {
  WorkloadModel w = MakeWorkload(
      {{"SELECT b FROM t WHERE a = 123", 50.0},
       {"SELECT a FROM t WHERE b = 5", 50.0}});
  MctsConfig config;
  config.iterations = 60;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult first = selector.Run(
      IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  ASSERT_FALSE(first.to_add.empty());
  const size_t tree_after_first = selector.tree_size();
  EXPECT_GT(tree_after_first, 1u);

  // Apply the recommendation, then rerun from the new root: the rebase
  // must succeed (tree persists) and the second run should be consistent
  // (no oscillation back).
  MctsResult second =
      selector.Run(first.best_config, {IndexDef("t", {"a"}),
                                       IndexDef("t", {"b"})}, w);
  EXPECT_TRUE(second.to_remove.empty())
      << "second round should not undo the just-applied beneficial indexes";
}

TEST_F(MctsTest, DeterministicForFixedSeed) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 123", 10.0}});
  MctsConfig config;
  config.iterations = 40;
  MctsIndexSelector s1(&db_, estimator_.get(), config);
  MctsIndexSelector s2(&db_, estimator_.get(), config);
  MctsResult r1 = s1.Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  MctsResult r2 = s2.Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.to_add.size(), r2.to_add.size());
}

TEST_F(MctsTest, EarlyStopViaPatience) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 123", 10.0}});
  MctsConfig config;
  config.iterations = 10000;
  config.patience = 10;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult result = selector.Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  EXPECT_LT(result.iterations_run, 10000u);
}

// Regression for the tree_size drift fixed alongside the validator work:
// RebaseRoot used to leave tree_size() counting nodes of the discarded
// siblings, so the policy-tree validator (which recounts with a fresh
// walk) would flag every post-rebase tree. Two rounds with the
// recommendation applied force a rebase; the tree must then validate.
TEST_F(MctsTest, PolicyTreeValidatesAfterRunsAndRebase) {
  WorkloadModel w = MakeWorkload(
      {{"SELECT b FROM t WHERE a = 123", 50.0},
       {"SELECT a FROM t WHERE b = 5", 50.0}});
  MctsConfig config;
  config.iterations = 60;
  MctsIndexSelector selector(&db_, estimator_.get(), config);
  MctsResult first = selector.Run(
      IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  EXPECT_TRUE(selector.ValidateTree().ok())
      << selector.ValidateTree().ToString();
  ASSERT_FALSE(first.to_add.empty());

  selector.Run(first.best_config,
               {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  const CheckReport report = CheckAll(db_, selector);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Gamma sweep: any reasonable exploration constant finds the obvious
// index; this guards the UCB formula against degenerate behavior.
class MctsGammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(MctsGammaSweep, FindsIndexAcrossGammas) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                      {"b", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 10))});
  }
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());
  db.Analyze();
  IndexBenefitEstimator estimator(&db);
  TemplateStore store(10);
  QueryTemplate* t = store.Observe("SELECT b FROM t WHERE a = 55");
  ASSERT_NE(t, nullptr);
  t->frequency = 100.0;
  WorkloadModel w =
      WorkloadModel::FromTemplates(store.TemplatesByFrequency());
  MctsConfig config;
  config.gamma = GetParam();
  config.iterations = 60;
  MctsIndexSelector selector(&db, &estimator, config);
  MctsResult result = selector.Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  EXPECT_EQ(result.to_add.size(), 1u) << "gamma=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Gammas, MctsGammaSweep,
                         ::testing::Values(0.1, 0.3, 0.7, 1.5, 3.0));

}  // namespace
}  // namespace autoindex
