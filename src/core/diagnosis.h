#pragma once

#include <vector>

#include "core/benefit_estimator.h"
#include "engine/database.h"

namespace autoindex {

// Classification of the current index estate against the live workload
// (Sec. III): (i) beneficial indexes not yet built, (ii) rarely-used
// indexes, (iii) built indexes with negative net benefit (maintenance
// exceeding their read savings).
struct DiagnosisReport {
  std::vector<IndexDef> unbuilt_beneficial;
  std::vector<IndexDef> rarely_used;
  std::vector<IndexDef> negative_benefit;
  size_t built_indexes = 0;
  double problem_ratio = 0.0;
  bool should_tune = false;  // problem_ratio above the 0.2 trigger
};

class IndexDiagnoser {
 public:
  IndexDiagnoser(Database* db, IndexBenefitEstimator* estimator)
      : db_(db), estimator_(estimator) {}

  // Diagnoses the built index set against the workload model.
  // `candidates` are unbuilt candidate indexes to probe for class (i).
  DiagnosisReport Diagnose(const WorkloadModel& workload,
                           const std::vector<IndexDef>& candidates) const;

 private:
  Database* db_;
  IndexBenefitEstimator* estimator_;
};

}  // namespace autoindex
