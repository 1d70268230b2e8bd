#pragma once

#include <vector>

#include "check/validator.h"
#include "util/metrics.h"

namespace autoindex {

// Audits the process-wide metrics registry (DESIGN.md §11):
//  - every histogram snapshot satisfies bucket_sum >= count;
//  - max_us is zero whenever count is zero, and sum_us is zero whenever
//    count is zero;
//  - no registration ever collided on kind (asking for "x" as a counter
//    and later as a gauge).
// Snapshot never returns a shard with a Record in flight (see
// LatencyHistogram), so the histogram checks hold mid-race too: a report
// means corruption.
// Always runs — the registry exists independently of any Database, so this
// validator ignores the CheckContext.
class MetricsValidator : public Validator {
 public:
  const char* name() const override { return "metrics"; }
  void Validate(const CheckContext& ctx, CheckReport* report) const override;

  // Cross-snapshot monotonicity: counters and histogram counts/sums in
  // `after` must be >= their values in `before` (same registry, later
  // point in time). Names present in only one snapshot are fine —
  // registration is lazy. Exposed as a static helper so tests and
  // monitoring scrapers can diff any two snapshots.
  static void CheckMonotonePair(
      const std::vector<util::MetricsRegistry::MetricValue>& before,
      const std::vector<util::MetricsRegistry::MetricValue>& after,
      CheckReport* report);
};

}  // namespace autoindex
