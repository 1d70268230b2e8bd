// Index diagnosis (Sec. III): the three problem classes and the tuning
// trigger.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/diagnosis.h"
#include "core/query_template.h"

namespace autoindex {
namespace {

class DiagnosisTest : public ::testing::Test {
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

  static bool Has(const std::vector<IndexDef>& defs, const IndexDef& want) {
    return std::any_of(defs.begin(), defs.end(),
                       [&](const IndexDef& d) { return d == want; });
  }

  Database db_;
  TemplateStore store_{100};
  std::unique_ptr<IndexBenefitEstimator> estimator_;
};

TEST_F(DiagnosisTest, DetectsUnbuiltBeneficialIndex) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 100.0}});
  IndexDiagnoser diagnoser(&db_, estimator_.get());
  DiagnosisReport report = diagnoser.Diagnose(w, {IndexDef("t", {"a"})});
  EXPECT_TRUE(Has(report.unbuilt_beneficial, IndexDef("t", {"a"})));
  EXPECT_TRUE(report.should_tune);
}

TEST_F(DiagnosisTest, DetectsRarelyUsedIndex) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"c"})).ok());
  // No query ever touches c: zero planner uses.
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 10.0}});
  IndexDiagnoser diagnoser(&db_, estimator_.get());
  DiagnosisReport report = diagnoser.Diagnose(w, {});
  EXPECT_TRUE(Has(report.rarely_used, IndexDef("t", {"c"})));
}

TEST_F(DiagnosisTest, UsedIndexNotRare) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  // Execute queries so the planner records uses.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Execute("SELECT b FROM t WHERE a = 7").ok());
  }
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 10.0}});
  IndexDiagnoser diagnoser(&db_, estimator_.get());
  DiagnosisReport report = diagnoser.Diagnose(w, {});
  EXPECT_FALSE(Has(report.rarely_used, IndexDef("t", {"a"})));
}

TEST_F(DiagnosisTest, DetectsNegativeBenefitIndex) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  // Write-heavy workload: the b index is pure maintenance cost.
  WorkloadModel w =
      MakeWorkload({{"INSERT INTO t VALUES (1, 2, 3)", 1000.0}});
  IndexDiagnoser diagnoser(&db_, estimator_.get());
  DiagnosisReport report = diagnoser.Diagnose(w, {});
  EXPECT_TRUE(Has(report.negative_benefit, IndexDef("t", {"b"})));
  EXPECT_TRUE(report.should_tune);
}

TEST_F(DiagnosisTest, HealthyEstateDoesNotTrigger) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Execute("SELECT b FROM t WHERE a = 7").ok());
  }
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 100.0}});
  IndexDiagnoser diagnoser(&db_, estimator_.get());
  DiagnosisReport report = diagnoser.Diagnose(w, {});
  EXPECT_FALSE(report.should_tune)
      << "problem ratio " << report.problem_ratio;
}

TEST_F(DiagnosisTest, TriggersOnlyAboveProblemRatio) {
  // Five selective columns, each with an index the workload uses, plus
  // one index nothing touches: the unused index is the only problem.
  constexpr int kUsed = 5;
  std::vector<Column> columns = {{"cold", ValueType::kInt}};
  for (int c = 0; c < kUsed; ++c) {
    columns.push_back({"k" + std::to_string(c), ValueType::kInt});
  }
  CheckOk(db_.CreateTable("w", Schema(columns)));
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    Row row;  // cold, then k0..k4: every column holds i
    for (int c = 0; c <= kUsed; ++c) row.emplace_back(int64_t(i));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db_.BulkInsert("w", std::move(rows)).ok());
  db_.Analyze();
  ASSERT_TRUE(db_.CreateIndex(IndexDef("w", {"cold"})).ok());
  std::vector<std::pair<std::string, double>> queries;
  for (int c = 0; c < kUsed; ++c) {
    const std::string col = "k" + std::to_string(c);
    ASSERT_TRUE(db_.CreateIndex(IndexDef("w", {col})).ok());
    const std::string sql = "SELECT cold FROM w WHERE " + col + " = 7";
    ASSERT_TRUE(db_.Execute(sql).ok());
    queries.push_back({sql, 10.0});
  }
  WorkloadModel w = MakeWorkload(queries);
  IndexDiagnoser diagnoser(&db_, estimator_.get());

  // One problem among six built indexes: 0.17, below the 0.2 trigger.
  DiagnosisReport below = diagnoser.Diagnose(w, {});
  ASSERT_EQ(below.built_indexes, 6u);
  EXPECT_TRUE(Has(below.rarely_used, IndexDef("w", {"cold"})));
  EXPECT_LT(below.problem_ratio, 0.2);
  EXPECT_FALSE(below.should_tune);

  // Drop two used indexes: one problem among four, 0.25, above it.
  ASSERT_TRUE(db_.DropIndex(IndexDef("w", {"k3"}).Key()).ok());
  ASSERT_TRUE(db_.DropIndex(IndexDef("w", {"k4"}).Key()).ok());
  DiagnosisReport above = diagnoser.Diagnose(w, {});
  ASSERT_EQ(above.built_indexes, 4u);
  EXPECT_GT(above.problem_ratio, 0.2);
  EXPECT_TRUE(above.should_tune);
}

}  // namespace
}  // namespace autoindex
