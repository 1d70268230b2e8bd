// Index selection under storage budgets (the paper's Fig. 10 scenario):
// the same workload tuned with unlimited, generous, and tight budgets —
// MCTS trades wide indexes for smaller high-value ones as space shrinks.
//
//   $ ./build/examples/storage_budget

#include <cstdio>

#include "core/manager.h"
#include "workload/tpcc.h"
#include "workload/workload.h"

using namespace autoindex;  // NOLINT — example brevity

int main() {
  const size_t budgets[] = {0, 8u << 20, 4u << 20, 1u << 20};  // 0 = none
  const char* labels[] = {"unlimited", "8 MiB", "4 MiB", "1 MiB"};

  for (int b = 0; b < 4; ++b) {
    Database db;
    TpccConfig config;
    config.warehouses = 2;
    TpccWorkload::Populate(&db, config);

    AutoIndexConfig ai;
    ai.mcts.iterations = 200;
    ai.mcts.storage_budget_bytes = budgets[b];
    AutoIndexManager manager(&db, ai);

    const auto workload = TpccWorkload::Generate(config, 600, 7);
    RunMetrics before = RunWorkloadObserved(&manager, workload);
    manager.RunManagementRound();
    RunMetrics after =
        RunWorkload(&db, TpccWorkload::Generate(config, 600, 8));

    std::printf(
        "budget %-9s: %zu indexes, %5.2f MiB used, cost %9.1f -> %9.1f "
        "(%+.1f%%)\n",
        labels[b], db.index_manager().num_indexes(),
        db.index_manager().TotalIndexBytes() / 1048576.0,
        before.total_cost, after.total_cost,
        100.0 * (after.total_cost - before.total_cost) / before.total_cost);
  }
  return 0;
}
