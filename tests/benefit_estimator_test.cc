// Index benefit estimation (Sec. V): feature combination, workload-level
// costs, memoization, and the learned-model upgrade path.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/benefit_estimator.h"
#include "core/candidate_gen.h"
#include "core/manager.h"
#include "core/query_template.h"
#include "persist/serde.h"
#include "util/random.h"
#include "workload/banking.h"
#include "workload/tpcc.h"
#include "workload/tpcds.h"

namespace autoindex {
namespace {

class BenefitEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt}})));
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
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

TEST_F(BenefitEstimatorTest, WorkloadCostWeightsByFrequency) {
  WorkloadModel w1 = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 1.0}});
  const double c1 = estimator_->EstimateWorkloadCost(w1, IndexConfig());
  WorkloadModel w10 = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 10.0}});
  const double c10 = estimator_->EstimateWorkloadCost(w10, IndexConfig());
  EXPECT_NEAR(c10, 10.0 * c1, c1 * 0.01);
}

TEST_F(BenefitEstimatorTest, BenefitPositiveForGoodIndex) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 100.0}});
  IndexConfig with({IndexDef("t", {"a"})});
  EXPECT_GT(estimator_->EstimateBenefit(w, IndexConfig(), with), 0.0);
}

TEST_F(BenefitEstimatorTest, BenefitNegativeForWriteOnlyWorkload) {
  WorkloadModel w =
      MakeWorkload({{"INSERT INTO t VALUES (1, 2)", 1000.0}});
  IndexConfig with({IndexDef("t", {"a"})});
  EXPECT_LT(estimator_->EstimateBenefit(w, IndexConfig(), with), 0.0);
}

TEST_F(BenefitEstimatorTest, MemoizationIsTransparent) {
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 5.0}});
  IndexConfig config({IndexDef("t", {"a"})});
  const double first = estimator_->EstimateWorkloadCost(w, config);
  const double second = estimator_->EstimateWorkloadCost(w, config);
  EXPECT_DOUBLE_EQ(first, second);
  estimator_->InvalidateCache();
  EXPECT_DOUBLE_EQ(estimator_->EstimateWorkloadCost(w, config), first);
}

TEST_F(BenefitEstimatorTest, ConfigHashOrderIndependent) {
  IndexConfig ab({IndexDef("t", {"a"}), IndexDef("t", {"b"})});
  IndexConfig ba({IndexDef("t", {"b"}), IndexDef("t", {"a"})});
  EXPECT_EQ(HashConfig(ab), HashConfig(ba));
  IndexConfig other({IndexDef("t", {"a"})});
  EXPECT_NE(HashConfig(ab), HashConfig(other));
}

TEST_F(BenefitEstimatorTest, TrainingRequiresMinimumObservations) {
  estimator_->AddObservation({1.0, 0.0, 0.0}, 10.0);
  EXPECT_LT(estimator_->TrainModel(64), 0.0);  // skipped
  EXPECT_FALSE(estimator_->model_trained());
}

TEST_F(BenefitEstimatorTest, LearnedModelChangesEstimates) {
  // Feed a synthetic history where true cost = 2*C_data (maintenance
  // features are red herrings), then verify the trained estimator departs
  // from the static sum.
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    const double c_data = rng.NextDouble() * 100.0;
    const double c_io = rng.NextDouble() * 50.0;
    const double c_cpu = rng.NextDouble() * 50.0;
    estimator_->AddObservation({c_data, c_io, c_cpu}, 2.0 * c_data);
  }
  EXPECT_GE(estimator_->TrainModel(64), 0.0);
  EXPECT_TRUE(estimator_->model_trained());
  EXPECT_EQ(estimator_->num_observations(), 200u);
  const double rmse = estimator_->CrossValidateRmse();
  EXPECT_GT(rmse, 0.0);
  EXPECT_LT(rmse, 40.0);

  // Cost estimates should still rank configurations correctly.
  WorkloadModel w = MakeWorkload({{"SELECT b FROM t WHERE a = 7", 100.0}});
  IndexConfig with({IndexDef("t", {"a"})});
  EXPECT_GT(estimator_->EstimateBenefit(w, IndexConfig(), with), 0.0);
}

TEST_F(BenefitEstimatorTest, EmptyWorkloadCostsZero) {
  WorkloadModel empty;
  EXPECT_DOUBLE_EQ(estimator_->EstimateWorkloadCost(empty, IndexConfig()),
                   0.0);
}

TEST_F(BenefitEstimatorTest, ZeroFrequencyTemplatesDropped) {
  QueryTemplate* t = store_.Observe("SELECT b FROM t WHERE a = 1");
  ASSERT_NE(t, nullptr);
  t->frequency = 0.0;
  WorkloadModel w =
      WorkloadModel::FromTemplates(store_.TemplatesByFrequency());
  EXPECT_TRUE(w.entries.empty());
}

TEST_F(BenefitEstimatorTest, TrainingPairsKeepTheNewestInARing) {
  constexpr size_t kCap = IndexBenefitEstimator::kMaxTrainingPairs;
  static_assert(kCap >= 1024);
  for (size_t i = 0; i < 3 * kCap; ++i) {
    const double x = static_cast<double>(i);
    estimator_->AddObservation({x, 1.0, 2.0}, x);
  }
  EXPECT_EQ(estimator_->num_observations(), kCap);

  // The saved history is the model, then the pairs oldest first: exactly
  // the last kCap observed.
  persist::Writer w;
  estimator_->Save(&w);
  persist::Reader r(w.buffer());
  (void)SigmoidRegression::Load(&r);
  ASSERT_EQ(r.GetU32(), kCap);
  for (size_t k = 0; k < kCap; ++k) {
    const double want = static_cast<double>(2 * kCap + k);
    ASSERT_EQ(r.GetU32(), 3u);
    EXPECT_EQ(r.GetDouble(), want);
    EXPECT_EQ(r.GetDouble(), 1.0);
    EXPECT_EQ(r.GetDouble(), 2.0);
    EXPECT_EQ(r.GetDouble(), want);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  // A reloaded ring saves the same bytes and keeps replacing its oldest.
  IndexBenefitEstimator reloaded(&db_);
  persist::Reader again(w.buffer());
  reloaded.Load(&again);
  persist::Writer resaved;
  reloaded.Save(&resaved);
  EXPECT_EQ(resaved.buffer(), w.buffer());
}

TEST_F(BenefitEstimatorTest, TuningStateSizeStopsGrowingAtTheCap) {
  constexpr size_t kCap = IndexBenefitEstimator::kMaxTrainingPairs;
  AutoIndexConfig config;
  AutoIndexManager manager(&db_, config);
  const auto observe = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      manager.estimator().AddObservation({x, x, x, x, x}, x);
    }
  };
  observe(2 * kCap);
  persist::Writer at_two;
  manager.SaveTuningState(&at_two);
  observe(kCap);
  persist::Writer at_three;
  manager.SaveTuningState(&at_three);
  EXPECT_EQ(at_three.buffer().size(), at_two.buffer().size());
}

// --- memo keyed by usable indexes ----------------------------------------

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::string Describe(const std::vector<IndexDef>& defs) {
  std::string out;
  for (const IndexDef& def : defs) out += " " + def.Key();
  return out;
}

// Prices every template of `queries` under random configs drawn from the
// candidates and the built indexes (shuffled, sometimes with a duplicate
// def, each also seen again in another order) and checks that the memo's
// cost is bit-identical to a fresh what-if call on the full config.
void ExpectMemoMatchesFreshCosts(Database* db,
                                 const std::vector<std::string>& queries,
                                 uint64_t seed,
                                 std::set<StatementKind>* kinds) {
  TemplateStore store(5000);
  for (const std::string& sql : queries) {
    ASSERT_NE(store.Observe(sql), nullptr) << sql;
  }
  const std::vector<const QueryTemplate*> templates =
      store.TemplatesByFrequency();
  const WorkloadModel workload = WorkloadModel::FromTemplates(templates);
  const IndexConfig existing = db->CurrentConfig();
  std::vector<IndexDef> pool =
      CandidateGenerator(db).Generate(templates, existing);
  pool.insert(pool.end(), existing.defs().begin(), existing.defs().end());
  ASSERT_FALSE(pool.empty());

  IndexBenefitEstimator estimator(db);
  Random rng(seed);
  const auto shuffle = [&rng](std::vector<IndexDef>* defs) {
    for (size_t i = defs->size(); i > 1; --i) {
      std::swap((*defs)[i - 1], (*defs)[rng.Uniform(i)]);
    }
  };
  size_t lookups = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<IndexDef> defs;
    for (const IndexDef& def : pool) {
      if (rng.Bernoulli(0.3)) defs.push_back(def);
    }
    if (!defs.empty() && rng.Bernoulli(0.4)) {
      defs.push_back(defs[rng.Uniform(defs.size())]);
    }
    for (int order = 0; order < 2; ++order) {
      shuffle(&defs);
      const IndexConfig config(defs);
      double want_total = 0.0;
      for (const WorkloadModel::Entry& entry : workload.entries) {
        const QueryTemplate* t = entry.tmpl;
        kinds->insert(t->representative.kind);
        WorkloadModel one;
        one.entries.push_back({t, 1.0});
        const double memo = estimator.EstimateWorkloadCost(one, config);
        const double fresh =
            estimator.EstimateStatementCost(t->representative, config);
        ++lookups;
        EXPECT_EQ(Bits(memo), Bits(fresh))
            << t->representative.ToString() << " under" << Describe(defs)
            << ": memo " << memo << " fresh " << fresh;
        want_total += entry.weight * fresh;
      }
      EXPECT_EQ(Bits(estimator.EstimateWorkloadCost(workload, config)),
                Bits(want_total));
    }
  }
  // The configs shared entries, or the test proved nothing about reuse.
  EXPECT_LT(estimator.cache_size(), lookups / 2);
}

TEST(UsableIndexMemo, MatchesFreshCostsOnTpcc) {
  Database db;
  TpccConfig config;
  config.customers_per_district = 60;
  config.items = 300;
  config.orders_per_district = 40;
  TpccWorkload::Populate(&db, config);
  TpccWorkload::CreateDefaultIndexes(&db);
  std::set<StatementKind> kinds;
  ExpectMemoMatchesFreshCosts(&db, TpccWorkload::Generate(config, 400, 7), 11,
                              &kinds);
  EXPECT_EQ(kinds.size(), 4u);  // SELECT, INSERT, UPDATE and DELETE
}

TEST(UsableIndexMemo, MatchesFreshCostsOnTpcds) {
  Database db;
  TpcdsConfig config;
  config.sales_rows = 6000;
  config.items = 600;
  config.customers = 500;
  config.dates = 365;
  config.promotions = 50;
  TpcdsWorkload::Populate(&db, config);
  TpcdsWorkload::CreateDefaultIndexes(&db);
  std::set<StatementKind> kinds;
  ExpectMemoMatchesFreshCosts(&db, TpcdsWorkload::Generate(config, 100, 7),
                              12, &kinds);
  EXPECT_EQ(kinds.count(StatementKind::kSelect), 1u);
}

TEST(UsableIndexMemo, MatchesFreshCostsOnBanking) {
  Database db;
  BankingConfig config;
  config.num_tables = 24;
  config.hot_tables = 6;
  config.rows_hot = 400;
  config.rows_cold = 40;
  config.manual_indexes = 40;
  BankingWorkload::Populate(&db, config);
  BankingWorkload::CreateManualIndexes(&db, config);
  std::set<StatementKind> kinds;
  ExpectMemoMatchesFreshCosts(
      &db, BankingWorkload::HybridService(config, 400, 7), 13, &kinds);
  EXPECT_GE(kinds.size(), 3u);
}

}  // namespace
}  // namespace autoindex
