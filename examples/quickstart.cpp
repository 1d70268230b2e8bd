// Quickstart: create a table, run a workload, let AutoIndex recommend and
// apply indexes, and verify the measured improvement.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/manager.h"
#include "workload/workload.h"

using namespace autoindex;  // NOLINT — example brevity

int main() {
  // 1. A database with one table and some data.
  Database db;
  CheckOk(db.CreateTable("orders", Schema({{"order_id", ValueType::kInt},
                                           {"customer_id", ValueType::kInt},
                                           {"status", ValueType::kInt},
                                           {"amount", ValueType::kDouble}})));
  std::vector<Row> rows;
  for (int i = 0; i < 50000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 5000)),
                    Value(int64_t(i % 7)), Value(i * 1.5)});
  }
  CheckOk(db.BulkInsert("orders", std::move(rows)));
  db.Analyze();

  // 2. Wrap it with AutoIndex and feed the query stream through it.
  AutoIndexConfig config;
  config.mcts.iterations = 150;
  AutoIndexManager manager(&db, config);

  std::vector<std::string> workload;
  for (int i = 0; i < 300; ++i) {
    workload.push_back("SELECT amount FROM orders WHERE customer_id = " +
                       std::to_string(i * 13 % 5000));
    if (i % 3 == 0) {
      workload.push_back(
          "SELECT COUNT(*) FROM orders WHERE customer_id = " +
          std::to_string(i % 5000) + " AND status = " +
          std::to_string(i % 7));
    }
  }
  RunMetrics before = RunWorkloadObserved(&manager, workload);
  std::printf("before tuning: total cost %.1f, throughput %.2f q/kcost\n",
              before.total_cost, before.Throughput());

  // 3. One management round: diagnose, generate candidates, search, apply.
  TuningResult tuning = manager.RunManagementRound();
  std::printf("management round: %zu templates, %zu candidates, %.1f ms\n",
              tuning.templates_considered, tuning.candidates_generated,
              tuning.elapsed_ms);
  for (const IndexDef& def : tuning.added) {
    std::printf("  + created %s\n", def.DisplayName().c_str());
  }
  for (const IndexDef& def : tuning.removed) {
    std::printf("  - dropped %s\n", def.DisplayName().c_str());
  }

  // 4. Measure again.
  RunMetrics after = RunWorkload(&db, workload);
  std::printf("after tuning:  total cost %.1f, throughput %.2f q/kcost\n",
              after.total_cost, after.Throughput());
  std::printf("cost reduction: %.1f%%\n",
              100.0 * (before.total_cost - after.total_cost) /
                  before.total_cost);
  return 0;
}
