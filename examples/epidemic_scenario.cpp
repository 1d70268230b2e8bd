// The paper's Fig. 2 walkthrough: an epidemic-tracking workload moving
// through three phases with different index needs. AutoIndex adapts the
// index set incrementally after each phase.
//
//   $ ./build/examples/epidemic_scenario

#include <cstdio>

#include "core/manager.h"
#include "workload/epidemic.h"
#include "workload/workload.h"

using namespace autoindex;  // NOLINT — example brevity

namespace {

void PrintIndexes(const Database& db, const char* label) {
  std::printf("%s indexes:", label);
  for (const BuiltIndex* index : db.index_manager().AllIndexes()) {
    std::printf(" %s", index->def().DisplayName().c_str());
  }
  if (db.index_manager().AllIndexes().empty()) std::printf(" (none)");
  std::printf("\n");
}

}  // namespace

int main() {
  Database db;
  EpidemicConfig config;
  EpidemicWorkload::Populate(&db, config);

  AutoIndexConfig ai;
  ai.mcts.iterations = 150;
  AutoIndexManager manager(&db, ai);

  struct Phase {
    const char* name;
    std::vector<std::string> queries;
  };
  const Phase phases[] = {
      {"W1 (early, read-mostly)",
       EpidemicWorkload::PhaseW1(config, 400, 1)},
      {"W2 (outbreak, insert-heavy)",
       EpidemicWorkload::PhaseW2(config, 600, 2)},
      {"W3 (controlled, update-heavy)",
       EpidemicWorkload::PhaseW3(config, 400, 3)},
  };

  for (const Phase& phase : phases) {
    std::printf("\n=== phase %s ===\n", phase.name);
    RunMetrics metrics = RunWorkloadObserved(&manager, phase.queries);
    std::printf("ran %zu queries, cost %.1f (read %.1f, maintenance %.1f)\n",
                metrics.queries, metrics.total_cost,
                metrics.breakdown.data,
                metrics.breakdown.maint_io + metrics.breakdown.maint_cpu);

    TuningResult tuning = manager.RunManagementRound();
    for (const IndexDef& def : tuning.added) {
      std::printf("  + %s\n", def.DisplayName().c_str());
    }
    for (const IndexDef& def : tuning.removed) {
      std::printf("  - %s\n", def.DisplayName().c_str());
    }
    PrintIndexes(db, "  current");

    RunMetrics after = RunWorkload(
        &db, phase.queries);  // replay the phase on the tuned estate
    std::printf("  replay cost %.1f (%.1f%% change)\n", after.total_cost,
                100.0 * (after.total_cost - metrics.total_cost) /
                    metrics.total_cost);
  }
  return 0;
}
