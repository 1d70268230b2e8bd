// Correctness-tooling layer (src/check/): healthy structures pass every
// validator, and each validator actually detects an injected corruption —
// an always-green checker would be worse than none, so every test here
// first proves health, then damages one structure through a test-only
// hook and asserts the precise report.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "check/validator.h"
#include "core/benefit_estimator.h"
#include "core/mcts.h"
#include "core/query_template.h"
#include "engine/database.h"
#include "workload/workload.h"

namespace autoindex {
namespace {

// True when any reported issue's detail mentions `needle`.
bool ReportMentions(const CheckReport& report, const std::string& needle) {
  return std::any_of(report.issues().begin(), report.issues().end(),
                     [&](const CheckIssue& issue) {
                       return issue.detail.find(needle) != std::string::npos;
                     });
}

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto created = db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                                {"b", ValueType::kInt},
                                                {"c", ValueType::kInt}}));
    ASSERT_TRUE(created.ok());
    std::vector<Row> rows;
    for (int i = 0; i < 5000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100)),
                      Value(int64_t(i % 7))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
    db_.Analyze();
  }

  Database db_;
};

TEST_F(CheckTest, HealthyDatabasePassesEveryValidator) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b", "c"})).ok());
  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // "OK" must mean "looked and found nothing", not "looked at nothing".
  EXPECT_GT(report.structures_checked(), 3u);
  EXPECT_NE(report.ToString().find("OK"), std::string::npos);
}

TEST_F(CheckTest, HealthyPartitionedLocalIndexPasses) {
  HeapTable* table = db_.catalog().GetTable("t");
  ASSERT_TRUE(table->SetPartitioning("b", 8));
  ASSERT_TRUE(
      db_.CreateIndex(IndexDef("t", {"a"}, IndexKind::kLocal)).ok());
  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- B+Tree corruptions -------------------------------------------------

TEST_F(CheckTest, DetectsLeafOrderCorruption) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  ASSERT_TRUE(index->tree().TestOnlyCorruptLeafOrder());
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "out of order")) << report.ToString();
}

TEST_F(CheckTest, DetectsBrokenLeafChain) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  ASSERT_TRUE(index->tree().TestOnlyBreakLeafChain());
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "leaf chain")) << report.ToString();
}

TEST_F(CheckTest, DetectsEntryCountDrift) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  index->tree().TestOnlySetNumEntries(index->tree().num_entries() + 3);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "num_entries")) << report.ToString();
}

TEST_F(CheckTest, DetectsHeightDrift) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  index->tree().TestOnlySetHeight(index->tree().height() + 1);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "height")) << report.ToString();
}

// --- Heap-table corruptions ---------------------------------------------

TEST_F(CheckTest, DetectsLiveRowCounterDrift) {
  HeapTable* table = db_.catalog().GetTable("t");
  table->TestOnlySetLiveRows(table->num_rows() + 5);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "live-row counter"))
      << report.ToString();
}

TEST_F(CheckTest, DetectsRowArityCorruption) {
  HeapTable* table = db_.catalog().GetTable("t");
  ASSERT_TRUE(table->TestOnlyTruncateRow(42));
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "schema declares"))
      << report.ToString();
}

// --- Catalog / index-manager corruptions --------------------------------

TEST_F(CheckTest, DetectsIndexOnDroppedTable) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  // Dropping the table straight through the catalog bypasses the index
  // manager — exactly the inconsistency the validator exists to catch.
  ASSERT_TRUE(db_.catalog().DropTable("t").ok());
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "dropped table")) << report.ToString();
}

TEST_F(CheckTest, DetectsIndexEntryDriftAgainstTable) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  // Delete a row behind the index manager's back: the index now holds an
  // entry for a dead row (retirement-drift class of bug).
  ASSERT_TRUE(db_.catalog().GetTable("t")->Delete(17).ok());
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "live rows")) << report.ToString();
}

// --- Physical-plan corruptions ------------------------------------------

class CheckPlanTest : public CheckTest {
 protected:
  // Runs a SELECT so the executor retains a plan snapshot, proves the
  // healthy snapshot passes, and hands the test a mutable pointer to it.
  PlanNodeSnapshot* ExecuteAndGetPlan() {
    auto r = db_.Execute("SELECT a, b FROM t WHERE b = 7 ORDER BY a LIMIT 5");
    EXPECT_TRUE(r.ok());
    const CheckReport healthy = CheckAll(db_);
    EXPECT_TRUE(healthy.ok()) << healthy.ToString();
    PlanNodeSnapshot* plan = db_.executor().TestOnlyMutableLastPlan();
    EXPECT_NE(plan, nullptr);
    return plan;
  }

  // The plan validator's issues all carry the "physical_plan" attribution.
  static bool PlanIssueReported(const CheckReport& report) {
    return std::any_of(report.issues().begin(), report.issues().end(),
                       [](const CheckIssue& issue) {
                         return issue.validator == "physical_plan";
                       });
  }
};

TEST_F(CheckPlanTest, DetectsCounterSumDrift) {
  PlanNodeSnapshot* plan = ExecuteAndGetPlan();
  ASSERT_NE(plan, nullptr);
  plan->actual.rows_out += 3;  // root no longer matches stats.rows_returned
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(PlanIssueReported(report)) << report.ToString();
  EXPECT_TRUE(ReportMentions(report, "rows_returned")) << report.ToString();
}

TEST_F(CheckPlanTest, DetectsUnknownOperator) {
  PlanNodeSnapshot* plan = ExecuteAndGetPlan();
  ASSERT_NE(plan, nullptr);
  plan->op = "Bogus";
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "unknown operator"))
      << report.ToString();
}

TEST_F(CheckPlanTest, DetectsNegativeCounter) {
  PlanNodeSnapshot* plan = ExecuteAndGetPlan();
  ASSERT_NE(plan, nullptr);
  plan->actual.comparisons = -1;
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "negative counter"))
      << report.ToString();
}

TEST_F(CheckPlanTest, DetectsWidthPropagationViolation) {
  PlanNodeSnapshot* plan = ExecuteAndGetPlan();
  ASSERT_NE(plan, nullptr);
  plan->out_width = 7;  // Project must emit width 1
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "width")) << report.ToString();
}

TEST_F(CheckPlanTest, PlanValidatorNoOpsBeforeAnyQuery) {
  // A fresh database has no retained plan; CheckAll must stay green.
  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- MCTS policy-tree corruptions ---------------------------------------

class CheckMctsTest : public CheckTest {
 protected:
  void SetUp() override {
    CheckTest::SetUp();
    estimator_ = std::make_unique<IndexBenefitEstimator>(&db_);
    selector_ = std::make_unique<MctsIndexSelector>(&db_, estimator_.get());
    QueryTemplate* t = store_.Observe("SELECT b FROM t WHERE a = 55");
    ASSERT_NE(t, nullptr);
    t->frequency = 100.0;
    WorkloadModel w =
        WorkloadModel::FromTemplates(store_.TemplatesByFrequency());
    selector_->Run(IndexConfig(), {IndexDef("t", {"a"})}, w);
  }

  TemplateStore store_{100};
  std::unique_ptr<IndexBenefitEstimator> estimator_;
  std::unique_ptr<MctsIndexSelector> selector_;
};

TEST_F(CheckMctsTest, HealthyPolicyTreePasses) {
  const CheckReport report = CheckAll(db_, *selector_);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(selector_->ValidateTree().ok());
}

TEST_F(CheckMctsTest, DetectsVisitCountCorruption) {
  ASSERT_TRUE(selector_->TestOnlyCorruptVisitCount());
  const CheckReport report = CheckAll(db_, *selector_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "visits")) << report.ToString();
}

TEST_F(CheckMctsTest, DetectsBenefitOutOfBounds) {
  ASSERT_TRUE(selector_->TestOnlyCorruptBenefit());
  const CheckReport report = CheckAll(db_, *selector_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "[0, 1]")) << report.ToString();
}

TEST_F(CheckMctsTest, MctsValidatorNoOpsWithoutSelector) {
  // CheckAll(db) alone must not try to reach a policy tree.
  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- Debug-mode wiring -------------------------------------------------

TEST_F(CheckTest, DebugHookFailsMutationsAfterCorruption) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  InstallDebugChecks(&db_);
  EXPECT_TRUE(db_.debug_checks_enabled());

  // Healthy: mutations pass through the hook.
  EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (90001, 1, 2)").ok());

  // Corrupt, then mutate: the statement itself succeeds at the storage
  // level but the post-mutation check must surface the damage.
  db_.catalog().GetTable("t")->TestOnlySetLiveRows(1);
  const auto result = db_.Execute("INSERT INTO t VALUES (90002, 1, 2)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("invariant check failed"),
            std::string::npos)
      << result.status().ToString();

  // SELECTs are not gated by the mutation hook.
  EXPECT_TRUE(db_.Execute("SELECT a FROM t WHERE a = 5").ok());

  InstallDebugChecks(&db_, /*install=*/false);
  EXPECT_FALSE(db_.debug_checks_enabled());
  EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (90003, 1, 2)").ok());
}

TEST_F(CheckTest, ReportToStringNamesValidatorAndStructure) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  index->tree().TestOnlySetNumEntries(0);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  const std::string rendered = report.ToString();
  EXPECT_NE(rendered.find("[btree]"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("idx_t_a"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace autoindex
