// AutoIndexManager integration: the full Fig.-3 loop against live
// workloads, incremental adaptation across phases, drift handling, and
// budget plumbing.

#include <gtest/gtest.h>

#include "check/validator.h"
#include "core/manager.h"
#include "workload/epidemic.h"
#include "workload/workload.h"

namespace autoindex {
namespace {

AutoIndexConfig FastConfig() {
  AutoIndexConfig config;
  config.mcts.iterations = 80;
  config.mcts.patience = 40;
  config.learn_cost_model = false;
  return config;
}

class ManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EpidemicWorkload::Populate(&db_, epidemic_);
  }

  // Every integration scenario ends with a full structural validation:
  // whatever the tuning loop built, retired, or rebuilt, the substrate
  // must still be internally consistent.
  void TearDown() override {
    const CheckReport report = CheckAll(db_);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }

  Database db_;
  EpidemicConfig epidemic_;
};

TEST_F(ManagerTest, RoundRecommendsAndAppliesIndexes) {
  AutoIndexManager manager(&db_, FastConfig());
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 150, 1));
  EXPECT_GT(manager.templates().size(), 0u);
  TuningResult result = manager.RunManagementRound();
  EXPECT_FALSE(result.added.empty());
  EXPECT_GT(result.est_benefit, 0.0);
  EXPECT_TRUE(result.apply_errors.empty());
  // The recommended indexes are physically built.
  for (const IndexDef& def : result.added) {
    EXPECT_TRUE(db_.index_manager().HasIndex(def)) << def.DisplayName();
  }
  EXPECT_EQ(db_.index_manager().num_indexes(),
            db_.CurrentConfig().defs().size());
  EXPECT_GT(db_.index_manager().num_indexes(), 0u);
}

TEST_F(ManagerTest, DryRunDoesNotTouchIndexes) {
  AutoIndexManager manager(&db_, FastConfig());
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 150, 1));
  TuningResult result = manager.RunManagementRound(/*apply=*/false);
  EXPECT_FALSE(result.added.empty());
  EXPECT_EQ(db_.index_manager().num_indexes(), 0u);
}

TEST_F(ManagerTest, AdaptsAcrossPhases) {
  // The Fig. 2 storyline: W1 builds read indexes; W2 (insert-heavy) makes
  // some of them too expensive to keep; the manager must adapt without
  // manual intervention.
  AutoIndexManager manager(&db_, FastConfig());

  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 200, 1));
  TuningResult r1 = manager.RunManagementRound();
  const size_t after_w1 = db_.index_manager().num_indexes();
  EXPECT_GT(after_w1, 0u);

  // Phase W2: heavy inserts. Several rounds of drifted traffic.
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW2(epidemic_, 400, 2));
  TuningResult r2 = manager.RunManagementRound();
  // Adaptation happened: either indexes were dropped, or at minimum no
  // new read indexes were piled on.
  EXPECT_LE(db_.index_manager().num_indexes(), after_w1 + 1);

  // Phase W3: update-heavy keyed by (name, community).
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW3(epidemic_, 300, 3));
  TuningResult r3 = manager.RunManagementRound();
  // The W3 lookup pattern should now be servable by some index on name
  // and/or community.
  bool has_name_index = false;
  for (const BuiltIndex* index : db_.index_manager().AllIndexes()) {
    for (const std::string& col : index->def().columns) {
      if (col == "name") has_name_index = true;
    }
  }
  EXPECT_TRUE(has_name_index)
      << "W3's update lookups want an index containing name";
}

TEST_F(ManagerTest, MeasuredCostImprovesAfterTuning) {
  AutoIndexManager manager(&db_, FastConfig());
  const auto queries = EpidemicWorkload::PhaseW1(epidemic_, 200, 7);
  RunMetrics before = RunWorkloadObserved(&manager, queries);
  manager.RunManagementRound();
  RunMetrics after =
      RunWorkload(&db_, EpidemicWorkload::PhaseW1(epidemic_, 200, 8));
  EXPECT_LT(after.total_cost, before.total_cost);
}

TEST_F(ManagerTest, DiagnoseFlagsMissingIndexes) {
  AutoIndexManager manager(&db_, FastConfig());
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 150, 1));
  DiagnosisReport report = manager.Diagnose();
  EXPECT_FALSE(report.unbuilt_beneficial.empty());
  EXPECT_TRUE(report.should_tune);
}

TEST_F(ManagerTest, StorageBudgetLimitsFootprint) {
  AutoIndexConfig config = FastConfig();
  config.mcts.storage_budget_bytes = 2 * 1024 * 1024;  // 2 MiB
  AutoIndexManager manager(&db_, config);
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 200, 1));
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW3(epidemic_, 200, 2));
  manager.RunManagementRound();
  EXPECT_LE(db_.index_manager().TotalIndexBytes(),
            config.mcts.storage_budget_bytes + kPageSizeBytes)
      << "built estate must respect the budget (page-granularity slack)";
}

TEST_F(ManagerTest, ObserveOnlyCollectsTemplates) {
  AutoIndexManager manager(&db_, FastConfig());
  ObserveWorkload(&manager, EpidemicWorkload::PhaseW1(epidemic_, 50, 1));
  EXPECT_GT(manager.templates().size(), 0u);
  EXPECT_EQ(manager.templates().total_observed(), 50u);
}

TEST_F(ManagerTest, TrainingDataAccumulatesWhenEnabled) {
  AutoIndexConfig config = FastConfig();
  config.learn_cost_model = true;
  AutoIndexManager manager(&db_, config);
  // At the 5% sample rate, 2000 statements collect the 64 training pairs
  // a round needs before it fits the model.
  constexpr size_t kStatements = 2000;
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, kStatements, 1));
  const size_t samples = manager.estimator().num_observations();
  EXPECT_GE(samples, 64u);
  EXPECT_LT(samples, kStatements / 10) << "pairs are sampled, not all kept";
  manager.RunManagementRound();
  EXPECT_TRUE(manager.estimator().model_trained());
}

TEST_F(ManagerTest, TrainingDataNotCollectedWhenLearningOff) {
  AutoIndexManager manager(&db_, FastConfig());  // learn_cost_model = false
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 200, 1));
  EXPECT_EQ(manager.estimator().num_observations(), 0u);
  manager.RunManagementRound();
  EXPECT_FALSE(manager.estimator().model_trained());
}

// The execution feedback hook belongs to whoever installed it: a learning
// manager, alive or destroyed, must leave the caller's hook in place.
TEST_F(ManagerTest, ManagerLeavesCallerFeedbackHookInPlace) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("people", {"phone"})).ok());
  size_t batches = 0;
  db_.set_execution_feedback_hook(
      [&batches](const std::vector<AccessPathFeedback>&) { ++batches; });
  auto indexed_select = [this] {
    StatusOr<ExecResult> result =
        db_.Execute("SELECT name FROM people WHERE phone = 12345");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->indexes_used.empty());
    EXPECT_FALSE(result->feedback.empty());
  };
  {
    AutoIndexConfig config = FastConfig();
    config.learn_cost_model = true;
    AutoIndexManager manager(&db_, config);
    indexed_select();
    EXPECT_EQ(batches, 1u) << "the manager replaced the caller's hook";
  }
  indexed_select();
  EXPECT_EQ(batches, 2u) << "destroying the manager removed the hook";
  db_.set_execution_feedback_hook(nullptr);
}

TEST_F(ManagerTest, ElapsedTimeReported) {
  AutoIndexManager manager(&db_, FastConfig());
  RunWorkloadObserved(&manager,
                      EpidemicWorkload::PhaseW1(epidemic_, 100, 1));
  TuningResult result = manager.RunManagementRound();
  EXPECT_GT(result.elapsed_ms, 0.0);
  EXPECT_GT(result.templates_considered, 0u);
}

}  // namespace
}  // namespace autoindex
