#include "workload/workload.h"

#include <chrono>

namespace autoindex {
namespace {

template <typename ExecFn>
RunMetrics RunImpl(const std::vector<std::string>& queries,
                   std::vector<double>* per_query_costs, ExecFn&& exec) {
  RunMetrics metrics;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& sql : queries) {
    StatusOr<ExecResult> result = exec(sql);
    ++metrics.queries;
    if (!result.ok()) {
      ++metrics.failed;
      if (per_query_costs != nullptr) per_query_costs->push_back(0.0);
      continue;
    }
    const CostBreakdown cost = result->stats.ToCost();
    metrics.total_cost += cost.Total();
    metrics.breakdown += cost;
    if (per_query_costs != nullptr) per_query_costs->push_back(cost.Total());
  }
  const auto end = std::chrono::steady_clock::now();
  metrics.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return metrics;
}

}  // namespace

RunMetrics RunWorkload(Database* db, const std::vector<std::string>& queries,
                       std::vector<double>* per_query_costs) {
  return RunImpl(queries, per_query_costs,
                 [db](const std::string& sql) { return db->Execute(sql); });
}

RunMetrics RunWorkloadObserved(AutoIndexManager* manager,
                               const std::vector<std::string>& queries,
                               std::vector<double>* per_query_costs) {
  return RunImpl(queries, per_query_costs, [manager](const std::string& sql) {
    return manager->ExecuteAndObserve(sql);
  });
}

void ObserveWorkload(AutoIndexManager* manager,
                     const std::vector<std::string>& queries) {
  for (const std::string& sql : queries) manager->ObserveOnly(sql);
}

}  // namespace autoindex
