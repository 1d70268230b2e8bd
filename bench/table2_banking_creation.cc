// Reproduces Table II: index creation for the banking hybrid services.
// Paper shape: starting from the manual estate, AutoIndex adds a modest
// number of indexes (+33 in the paper) at small storage cost (+1.27 GB on
// 24.4 GB) and improves both services — the OLAP summarization service a
// bit more (+10%) than the OLTP withdrawal flow (+6%).

#include "bench/bench_util.h"
#include "workload/banking.h"

using namespace autoindex;         // NOLINT
using namespace autoindex::bench;  // NOLINT

int main() {
  PrintHeader("Table II — Index creation in the banking scenario");

  Database db;
  BankingConfig config;
  BankingWorkload::Populate(&db, config);
  // Start from a trimmed manual estate (as if Fig. 1's removal already
  // ran): keep only the id indexes on hot tables.
  for (int t = 0; t < config.hot_tables; ++t) {
    CheckOk(db.CreateIndex(IndexDef(BankingWorkload::TableName(t), {"id"})));
  }

  const size_t before_count = db.index_manager().num_indexes();
  const size_t before_bytes = db.index_manager().TotalIndexBytes();

  const auto withdraw_probe =
      BankingWorkload::WithdrawalService(config, 2500, 21);
  const auto summar_probe =
      BankingWorkload::SummarizationService(config, 800, 22);

  RunMetrics withdraw_before = RunWorkload(&db, withdraw_probe);
  RunMetrics summar_before = RunWorkload(&db, summar_probe);

  AutoIndexConfig ai;
  ai.learn_cost_model = false;  // both methods share the static Sec.-V estimator (paper fairness)
  ai.mcts.iterations = 300;
  ai.mcts.max_actions_per_node = 64;
  AutoIndexManager manager(&db, ai);
  ObserveWorkload(&manager, BankingWorkload::HybridService(config, 4000, 1));
  for (int round = 0; round < 6; ++round) {
    TuningResult r = manager.RunManagementRound();
    if (r.added.empty() && r.removed.empty()) break;
  }

  const size_t after_count = db.index_manager().num_indexes();
  const size_t after_bytes = db.index_manager().TotalIndexBytes();
  RunMetrics withdraw_after =
      RunWorkload(&db, BankingWorkload::WithdrawalService(config, 2500, 31));
  RunMetrics summar_after = RunWorkload(
      &db, BankingWorkload::SummarizationService(config, 800, 32));

  std::printf("\n%-34s %12s %12s\n", "", "Default", "AutoIndex");
  PrintRule();
  std::printf("%-34s %12zu %+12d\n", "# non-primary indexes", before_count,
              static_cast<int>(after_count) - static_cast<int>(before_count));
  std::printf("%-34s %9.2f MiB %+9.2f MiB\n", "index disk space",
              before_bytes / 1048576.0,
              (static_cast<double>(after_bytes) - before_bytes) / 1048576.0);
  std::printf("%-34s %12.3f %+11.1f%%\n", "summarization service (tput)",
              summar_before.Throughput(),
              100.0 * (summar_after.Throughput() - summar_before.Throughput()) /
                  summar_before.Throughput());
  std::printf("%-34s %12.3f %+11.1f%%\n", "withdrawal flow service (tput)",
              withdraw_before.Throughput(),
              100.0 *
                  (withdraw_after.Throughput() - withdraw_before.Throughput()) /
                  withdraw_before.Throughput());
  std::printf("\npaper shape: a few dozen added indexes, small storage "
              "delta, both services improve (OLAP a bit more)\n");
  return 0;
}
