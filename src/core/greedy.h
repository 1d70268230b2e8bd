#pragma once

#include <vector>

#include "core/benefit_estimator.h"
#include "engine/what_if.h"

namespace autoindex {

struct GreedyConfig {
  size_t storage_budget_bytes = 0;  // 0 = unlimited
};

struct GreedyResult {
  IndexConfig config;             // existing + selected additions
  std::vector<IndexDef> to_add;
  double base_cost = 0.0;
  double final_cost = 0.0;
  size_t evaluations = 0;  // estimator calls, for overhead comparison
};

// The heuristic baseline used throughout the paper's evaluation ("Greedy",
// cf. [2],[3],[26]): rank candidates by their *individual* benefit over
// the existing set and add the best until the budget is hit, so it misses
// combined index effects (Sec. VI-B, Table I). It shares AutoIndex's
// benefit estimator so the comparison isolates the search strategy —
// exactly the paper's setup ("To ensure the fairness, Greedy and AutoIndex
// utilized the same cost estimation method").
class GreedySelector {
 public:
  GreedySelector(Database* db, IndexBenefitEstimator* estimator,
                 GreedyConfig config = {})
      : db_(db), estimator_(estimator), config_(config) {}

  GreedyResult Run(const IndexConfig& existing,
                   const std::vector<IndexDef>& candidates,
                   const WorkloadModel& workload) const;

  void set_storage_budget(size_t bytes) {
    config_.storage_budget_bytes = bytes;
  }

 private:
  bool WithinBudget(const IndexConfig& config) const;

  Database* db_;
  IndexBenefitEstimator* estimator_;
  GreedyConfig config_;
};

}  // namespace autoindex
