#include "core/greedy.h"

#include <algorithm>

namespace autoindex {
namespace {

// Stop adding when the benefit falls below this fraction of the base
// workload cost.
constexpr double kMinBenefitFraction = 1e-4;

}  // namespace

bool GreedySelector::WithinBudget(const IndexConfig& config) const {
  if (config_.storage_budget_bytes == 0) return true;
  return config.TotalBytes(db_->catalog()) <= config_.storage_budget_bytes;
}

GreedyResult GreedySelector::Run(const IndexConfig& existing,
                                 const std::vector<IndexDef>& candidates,
                                 const WorkloadModel& workload) const {
  GreedyResult result;
  result.config = existing;
  result.base_cost = estimator_->EstimateWorkloadCost(workload, existing);
  ++result.evaluations;
  double current_cost = result.base_cost;
  const double min_gain = kMinBenefitFraction * result.base_cost;

  // Rank by individual benefit against the *existing* set, then add in
  // that fixed order while the budget allows.
  struct Scored {
    const IndexDef* def;
    double benefit;
  };
  std::vector<Scored> scored;
  for (const IndexDef& def : candidates) {
    IndexConfig with = existing;
    with.Add(def);
    const double cost = estimator_->EstimateWorkloadCost(workload, with);
    ++result.evaluations;
    scored.push_back({&def, result.base_cost - cost});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.benefit > b.benefit;
            });
  for (const Scored& s : scored) {
    if (s.benefit <= min_gain) break;
    IndexConfig next = result.config;
    next.Add(*s.def);
    if (!WithinBudget(next)) continue;  // skip what does not fit
    const double cost = estimator_->EstimateWorkloadCost(workload, next);
    ++result.evaluations;
    if (cost >= current_cost) continue;  // no combined gain; skip
    result.config = std::move(next);
    result.to_add.push_back(*s.def);
    current_cost = cost;
  }
  result.final_cost = current_cost;
  return result;
}

}  // namespace autoindex
