#include "check/validator.h"

#include <map>
#include <string>

#include "util/string_util.h"

namespace autoindex {

namespace {

constexpr char kLabel[] = "metrics";

const char* KindName(util::MetricsRegistry::Kind kind) {
  switch (kind) {
    case util::MetricsRegistry::Kind::kCounter:
      return "counter";
    case util::MetricsRegistry::Kind::kGauge:
      return "gauge";
    case util::MetricsRegistry::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

void CheckHistogram(const std::string& name,
                    const util::HistogramSnapshot& hist, CheckReport* report) {
  const uint64_t bucket_sum = hist.BucketSum();
  // A snapshot never catches a Record half done, so bucket_sum equals
  // count; a count with no bucket behind it is corruption.
  if (bucket_sum < hist.count) {
    report->AddIssue(kLabel,
                     StrCat("histogram ", name, ": count ", hist.count,
                            " exceeds bucket sum ", bucket_sum));
  }
  if (hist.count == 0 && hist.max_us != 0) {
    report->AddIssue(kLabel, StrCat("histogram ", name,
                                    ": empty but max_us = ", hist.max_us));
  }
  if (hist.count == 0 && hist.sum_us != 0) {
    report->AddIssue(kLabel, StrCat("histogram ", name,
                                    ": empty but sum_us = ", hist.sum_us));
  }
}

}  // namespace

void CheckMetrics(const util::MetricsRegistry& registry, CheckReport* report) {
  if (const uint64_t collisions = registry.type_collisions();
      collisions != 0) {
    report->AddIssue(
        kLabel,
        StrCat("registry saw ", collisions,
               " kind collision(s): some call site asked for an existing "
               "name as a different metric kind"));
  }
  for (const auto& metric : registry.Snapshot()) {
    report->NoteStructureChecked();
    if (metric.kind == util::MetricsRegistry::Kind::kHistogram) {
      CheckHistogram(metric.name, metric.hist, report);
    }
  }
}

void CheckMetricsMonotone(
    const std::vector<util::MetricsRegistry::MetricValue>& before,
    const std::vector<util::MetricsRegistry::MetricValue>& after,
    CheckReport* report) {
  std::map<std::string, const util::MetricsRegistry::MetricValue*> earlier;
  for (const auto& metric : before) {
    earlier[metric.name] = &metric;
  }
  for (const auto& metric : after) {
    auto it = earlier.find(metric.name);
    if (it == earlier.end()) continue;  // registered between snapshots
    const auto& prev = *it->second;
    report->NoteStructureChecked();
    if (prev.kind != metric.kind) {
      report->AddIssue(kLabel,
                       StrCat("metric ", metric.name, " changed kind: ",
                              KindName(prev.kind), " -> ",
                              KindName(metric.kind)));
      continue;
    }
    switch (metric.kind) {
      case util::MetricsRegistry::Kind::kCounter:
        if (metric.counter < prev.counter) {
          report->AddIssue(
              kLabel,
              StrCat("counter ", metric.name, " went backwards: ",
                     prev.counter, " -> ", metric.counter));
        }
        break;
      case util::MetricsRegistry::Kind::kGauge:
        break;  // gauges move both ways by design
      case util::MetricsRegistry::Kind::kHistogram:
        if (metric.hist.count < prev.hist.count) {
          report->AddIssue(
              kLabel,
              StrCat("histogram ", metric.name, " count went backwards: ",
                     prev.hist.count, " -> ", metric.hist.count));
        }
        if (metric.hist.sum_us < prev.hist.sum_us) {
          report->AddIssue(
              kLabel,
              StrCat("histogram ", metric.name, " sum went backwards: ",
                     prev.hist.sum_us, " -> ", metric.hist.sum_us));
        }
        if (metric.hist.max_us < prev.hist.max_us) {
          report->AddIssue(
              kLabel,
              StrCat("histogram ", metric.name, " max went backwards: ",
                     prev.hist.max_us, " -> ", metric.hist.max_us));
        }
        break;
    }
  }
}

}  // namespace autoindex
