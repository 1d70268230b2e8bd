// Reproduces Figure 7: the number of TPC-DS queries whose execution cost
// is reduced by more than a set of thresholds, for Greedy and AutoIndex.
// Paper shape: AutoIndex optimizes substantially more queries by >10% than
// Greedy (44 vs 15 on the paper's 99-query set; proportionally similar on
// this repo's 25-template set).

#include "bench/bench_util.h"
#include "workload/tpcds.h"

using namespace autoindex;         // NOLINT
using namespace autoindex::bench;  // NOLINT

namespace {

std::vector<double> PerTemplateCosts(Database* db, const TpcdsConfig& config,
                                     int draws) {
  std::vector<double> costs(TpcdsWorkload::kNumQueryTemplates, 0.0);
  for (int d = 0; d < draws; ++d) {
    Random rng(2000 + d);
    for (int q = 0; q < TpcdsWorkload::kNumQueryTemplates; ++q) {
      auto r = db->Execute(TpcdsWorkload::Query(q, config, &rng));
      if (r.ok()) costs[q] += r->stats.ToCost().Total();
    }
  }
  for (double& c : costs) c /= draws;
  return costs;
}

}  // namespace

int main() {
  PrintHeader("Figure 7 — # TPC-DS queries optimized beyond thresholds");
  TpcdsConfig config;
  const auto tuning_workload = TpcdsWorkload::Generate(config, 200, 7);
  constexpr int kDraws = 3;

  Database def_db;
  TpcdsWorkload::Populate(&def_db, config);
  TpcdsWorkload::CreateDefaultIndexes(&def_db);
  const auto base = PerTemplateCosts(&def_db, config, kDraws);

  // The paper's comparison runs under a resource limit. Self-calibrate:
  // let Greedy pick unconstrained first, then give BOTH methods 60% of
  // that footprint — the regime where top-k individual-benefit selection
  // packs big indexes and misses combinations.
  double probe_ms = 0.0;
  GreedyResult unlimited =
      RunGreedyPipeline(&def_db, tuning_workload, 0, &probe_ms);
  const size_t budget = std::max<size_t>(
      kPageSizeBytes,
      unlimited.config.TotalBytes(def_db.catalog()) * 6 / 10);
  std::printf("\nstorage budget (60%% of Greedy's unconstrained pick): "
              "%.1f MiB\n", budget / 1048576.0);

  Database greedy_db;
  TpcdsWorkload::Populate(&greedy_db, config);
  TpcdsWorkload::CreateDefaultIndexes(&greedy_db);
  double greedy_ms = 0.0;
  GreedyResult greedy =
      RunGreedyPipeline(&greedy_db, tuning_workload, budget, &greedy_ms);
  ApplyGreedy(&greedy_db, greedy);
  const auto greedy_costs = PerTemplateCosts(&greedy_db, config, kDraws);

  Database auto_db;
  TpcdsWorkload::Populate(&auto_db, config);
  TpcdsWorkload::CreateDefaultIndexes(&auto_db);
  AutoIndexConfig ai;
  ai.learn_cost_model = false;  // both methods share the static Sec.-V estimator (paper fairness)
  ai.mcts.iterations = 300;
  ai.mcts.storage_budget_bytes = budget;
  AutoIndexManager manager(&auto_db, ai);
  RunAutoIndexTuning(&manager, tuning_workload, 3);
  const auto auto_costs = PerTemplateCosts(&auto_db, config, kDraws);

  const double thresholds[] = {5.0, 10.0, 30.0, 50.0, 90.0};
  std::printf("\n%-18s %10s %10s\n", "reduction >", "Greedy", "AutoIndex");
  PrintRule();
  for (double th : thresholds) {
    int g = 0, a = 0;
    for (int q = 0; q < TpcdsWorkload::kNumQueryTemplates; ++q) {
      if (base[q] <= 0) continue;
      if (100.0 * (base[q] - greedy_costs[q]) / base[q] > th) ++g;
      if (100.0 * (base[q] - auto_costs[q]) / base[q] > th) ++a;
    }
    std::printf("%-17.0f%% %10d %10d\n", th, g, a);
  }
  std::printf("\n(total templates: %d)\n", TpcdsWorkload::kNumQueryTemplates);
  std::printf("paper shape: AutoIndex clears every threshold with ~2-3x "
              "more queries than Greedy\n");
  return 0;
}
