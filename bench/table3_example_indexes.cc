// Reproduces Table III: example recommended indexes in the banking
// scenario with per-query cost before/after.
// Paper shape: individual recommended indexes cut the cost of their probe
// queries by anywhere from ~2x to ~100x (ind20: 59495 -> 7655).

#include "bench/bench_util.h"
#include "util/string_util.h"
#include "workload/banking.h"

using namespace autoindex;         // NOLINT
using namespace autoindex::bench;  // NOLINT

int main() {
  PrintHeader("Table III — Example recommended indexes (banking)");

  Database db;
  BankingConfig config;
  BankingWorkload::Populate(&db, config);

  AutoIndexConfig ai;
  ai.learn_cost_model = false;  // both methods share the static Sec.-V estimator (paper fairness)
  ai.mcts.iterations = 300;
  AutoIndexManager manager(&db, ai);
  ObserveWorkload(&manager, BankingWorkload::HybridService(config, 4000, 1));
  TuningResult tuning = manager.RunManagementRound(/*apply=*/false);

  std::printf("\n%-28s | %-16s | %-16s | %s\n", "index",
              "cost (no index)", "cost (with index)", "reduction");
  PrintRule();
  int shown = 0;
  for (const IndexDef& def : tuning.added) {
    if (shown >= 8) break;
    // A probe query exercising this index's leading column.
    const std::string probe = StrFormat(
        "SELECT amount FROM %s WHERE %s = 100", def.table.c_str(),
        def.columns[0].c_str());
    auto before = db.Execute(probe);
    if (!before.ok()) continue;
    const double cost_before = before->stats.ToCost().Total();
    if (!db.CreateIndex(def).ok()) continue;
    auto after = db.Execute(probe);
    CheckOk(db.DropIndex(def.Key()));
    if (!after.ok()) continue;
    const double cost_after = after->stats.ToCost().Total();
    std::printf("%-28s | %16.3f | %16.3f | %.1f%%\n",
                def.DisplayName().c_str(), cost_before, cost_after,
                cost_before > 0
                    ? 100.0 * (cost_before - cost_after) / cost_before
                    : 0.0);
    ++shown;
  }
  if (shown == 0) {
    std::printf("(no indexes recommended — unexpected; check tuning)\n");
  }
  std::printf("\npaper shape: recommended indexes reduce their probe-query "
              "cost by large factors (up to ~99%%)\n");
  return 0;
}
