#include "core/diagnosis.h"

#include <algorithm>

namespace autoindex {
namespace {

// An index with fewer planner uses than this (since the last round) is
// "rarely used".
constexpr size_t kRareUseThreshold = 1;
// Tuning is triggered when the problem-index ratio exceeds this (Sec. III
// Index Diagnosis).
constexpr double kTriggerRatio = 0.2;
// Max unbuilt candidates to probe for positive benefit.
constexpr size_t kMaxProbeCandidates = 32;

}  // namespace

DiagnosisReport IndexDiagnoser::Diagnose(
    const WorkloadModel& workload,
    const std::vector<IndexDef>& candidates) const {
  DiagnosisReport report;
  const IndexConfig current = db_->CurrentConfig();
  const double base_cost =
      estimator_->EstimateWorkloadCost(workload, current);

  // (i) Beneficial but unbuilt candidates.
  size_t probed = 0;
  for (const IndexDef& def : candidates) {
    if (probed >= kMaxProbeCandidates) break;
    if (current.Contains(def)) continue;
    ++probed;
    IndexConfig with = current;
    with.Add(def);
    const double cost = estimator_->EstimateWorkloadCost(workload, with);
    if (cost < base_cost * (1.0 - 1e-6)) {
      report.unbuilt_beneficial.push_back(def);
    }
  }

  // (ii) Rarely-used built indexes (planner usage counters).
  for (const BuiltIndex* index : db_->index_manager().AllIndexes()) {
    ++report.built_indexes;
    if (index->uses() < kRareUseThreshold) {
      report.rarely_used.push_back(index->def());
    }
  }

  // (iii) Negative-benefit built indexes: removing them lowers the
  // estimated workload cost (their maintenance outweighs their savings, or
  // a wider index already covers them).
  for (const BuiltIndex* index : db_->index_manager().AllIndexes()) {
    IndexConfig without = current;
    without.Remove(index->def());
    const double cost = estimator_->EstimateWorkloadCost(workload, without);
    if (cost < base_cost * (1.0 - 1e-9)) {
      report.negative_benefit.push_back(index->def());
    }
  }

  // Problem ratio over the union of classes (Sec. III).
  const size_t denom =
      std::max<size_t>(1, report.built_indexes +
                              report.unbuilt_beneficial.size());
  // Count distinct problem indexes (rarely-used and negative may overlap).
  size_t problems = report.unbuilt_beneficial.size();
  for (const IndexDef& def : report.rarely_used) {
    problems += 1;
    (void)def;
  }
  for (const IndexDef& def : report.negative_benefit) {
    bool dup = false;
    for (const IndexDef& r : report.rarely_used) {
      if (r == def) {
        dup = true;
        break;
      }
    }
    if (!dup) problems += 1;
  }
  report.problem_ratio = static_cast<double>(problems) / denom;
  report.should_tune = report.problem_ratio > kTriggerRatio;
  return report;
}

}  // namespace autoindex
