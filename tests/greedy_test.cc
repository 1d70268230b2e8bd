// Greedy baseline (Sec. VI): top-k individual-benefit selection, its
// blindness to combined index effects, and the hill-climbing ablation.

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/query_template.h"

namespace autoindex {
namespace {

class GreedyTest : public ::testing::Test {
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
  TemplateStore store_{100};
  std::unique_ptr<IndexBenefitEstimator> estimator_;
};

TEST_F(GreedyTest, PicksBeneficialIndex) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 100.0}});
  GreedySelector greedy(&db_, estimator_.get());
  GreedyResult result = greedy.Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  ASSERT_EQ(result.to_add.size(), 1u);
  EXPECT_LT(result.final_cost, result.base_cost);
}

TEST_F(GreedyTest, SkipsUselessIndex) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 100.0}});
  GreedySelector greedy(&db_, estimator_.get());
  GreedyResult result = greedy.Run(IndexConfig(), {IndexDef("t", {"c"})}, w);
  EXPECT_TRUE(result.to_add.empty());
}

TEST_F(GreedyTest, NeverRemovesExistingIndexes) {
  // Even when an existing index is pure maintenance cost, Greedy cannot
  // retire it (the structural limitation the paper highlights).
  WorkloadModel w =
      MakeWorkload({{"INSERT INTO t VALUES (1, 2, 3)", 500.0}});
  IndexConfig existing({IndexDef("t", {"b"})});
  GreedySelector greedy(&db_, estimator_.get());
  GreedyResult result = greedy.Run(existing, {}, w);
  EXPECT_TRUE(result.config.Contains(IndexDef("t", {"b"})));
}

TEST_F(GreedyTest, BudgetStopsSelection) {
  WorkloadModel w = MakeWorkload(
      {{"SELECT b FROM t WHERE a = 7", 50.0},
       {"SELECT a FROM t WHERE b = 5", 50.0}});
  GreedyConfig config;
  config.storage_budget_bytes =
      IndexConfig({IndexDef("t", {"a"})}).TotalBytes(db_.catalog()) +
      kPageSizeBytes;
  GreedySelector greedy(&db_, estimator_.get(), config);
  GreedyResult result = greedy.Run(
      IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  EXPECT_LE(result.to_add.size(), 1u);
  EXPECT_LE(result.config.TotalBytes(db_.catalog()),
            config.storage_budget_bytes);
}

TEST_F(GreedyTest, CountsEvaluations) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 10.0}});
  GreedySelector greedy(&db_, estimator_.get());
  GreedyResult result = greedy.Run(
      IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
  EXPECT_GE(result.evaluations, 3u);  // base + 2 candidates
}

}  // namespace
}  // namespace autoindex
