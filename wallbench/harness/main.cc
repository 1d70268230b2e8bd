// wallbench: runs one benchmark workload, checks its outputs, and prints
// every metric by name with its unit. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the metrics are
// the end-to-end set, or with --trace 1 the per-layer set. Exit status is
// 0 only when every output check passed.
//
// Usage: wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/run.h"

namespace wallbench {
namespace {

// Must match BENCHMARK.json. The workloads also report latency_p99_us,
// tuning_round_ms and build_ms; those are printed but kept out of the JSON
// result because their run-to-run spread on a shared 4-core machine
// exceeds any bound the benchmark may set (see README.md).
const char* const kEndToEnd[] = {
    "setup_s",       "throughput_sps", "latency_p50_us",
    "tuned_speedup", "index_mib",      "peak_rss_mib",
};
const char* const kPerLayer[] = {
    "sql.parse_us",
    "engine.execute_us.select",
    "engine.execute_us.insert",
    "engine.execute_us.update",
    "engine.execute_us.delete",
    "engine.tuples_per_row",
    "engine.pages_per_stmt",
    "engine.index_use_ratio",
    "storage.latch_wait_us",
    "storage.latch_contended_ratio",
    "index.register_ms",
    "index.scan_ms",
    "index.catchup_ms",
    "index.publish_ms",
    "index.build_ms",
    "index.drop_ms",
    "index.entries_per_write",
    "core.observe_us",
    "core.candidate_gen_ms",
    "core.search_ms",
    "core.apply_ms",
    "core.round_ms",
    "core.rounds_to_fixpoint",
    "core.indexes_added",
    "core.indexes_dropped",
    "core.index_churn",
    "core.estimator_cache_hit_ratio",
    "persist.wal_append_us",
    "persist.wal_bytes_per_write",
    "net.query_us",
    "net.overhead_us",
    "net.bytes_per_stmt",
    "net.busy_rejections",
    "bench.generator_lag_p99_us",
    "bench.trace_overhead_pct",
};

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload tpcc_inproc|tpcc_loopback|"
               "tpcds_tune|online_build --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

// Every expected metric present exactly once, and finite.
void RequireMetrics(const std::vector<Metric>& metrics,
                    const std::vector<std::string>& expected,
                    RunResult* result) {
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!seen.insert(m.name).second) result->Fail("duplicate metric " + m.name);
    if (!std::isfinite(m.value)) result->Fail("non-finite metric " + m.name);
  }
  for (const std::string& name : expected) {
    if (seen.count(name) == 0) result->Fail("metric not measured: " + name);
  }
}

void PrintReport(const RunOptions& options, const RunResult& result,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::string>& listed) {
  std::printf("wallbench %s  seed=%llu  seconds=%g  trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::printf("  statements attempted %llu, failed %llu, error_rate %.6f\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0);
  std::printf("  %-34s %16s  %-6s %s\n", "metric", "value", "unit", "");
  for (const Metric& m : metrics) {
    const bool informational =
        std::find(listed.begin(), listed.end(), m.name) == listed.end();
    std::printf("  %-34s %16.4f  %-6s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str(),
                informational ? " (informational, not in BENCHMARK.json)" : "");
  }
  if (!result.spans.empty()) {
    std::printf("  per-layer spans (benchmark-side)\n");
    std::printf("  %-26s %10s %14s %14s %12s\n", "span", "count",
                "total_ms", "self_ms", "p99_us");
    for (const SpanSummary& s : result.spans) {
      char p99[32];
      if (s.p99_us >= 0.0) {
        std::snprintf(p99, sizeof(p99), "%.2f", s.p99_us);
      } else {
        std::snprintf(p99, sizeof(p99), "n/a");
      }
      std::printf("  %-26s %10zu %14.3f %14.3f %12s\n", s.name.c_str(),
                  s.count, s.total_us / 1000.0, s.self_us / 1000.0, p99);
    }
  }
  for (const std::string& f : result.failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("  outputs %s\n", result.correct ? "verified" : "INCORRECT");
}

void PrintJson(const RunResult& result, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(options.seconds > 0.0)) {
    return Usage();
  }

  RunResult result;
  if (options.workload == "tpcc_inproc") {
    result = RunTpccInproc(options);
  } else if (options.workload == "tpcc_loopback") {
    result = RunTpccLoopback(options);
  } else if (options.workload == "tpcds_tune") {
    result = RunTpcdsTune(options);
  } else if (options.workload == "online_build") {
    result = RunOnlineBuild(options);
  } else {
    return Usage();
  }
  if (result.attempted == 0) result.Fail("nothing was attempted");

  const std::vector<Metric>& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  std::vector<std::string> expected;
  if (options.trace) {
    expected.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    expected.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  if (result.correct) RequireMetrics(metrics, expected, &result);
  // The JSON result carries exactly the BENCHMARK.json metrics, in order;
  // the text report also shows the informational ones.
  std::vector<Metric> listed;
  for (const std::string& name : expected) {
    for (const Metric& m : metrics) {
      if (m.name == name) listed.push_back(m);
    }
  }
  if (!result.chrome_trace.empty()) {
    const std::string path = options.work_dir + "/trace_" + options.workload +
                             "_" + std::to_string(options.seed) + ".json";
    std::ofstream(path) << result.chrome_trace;
    result.Note("Chrome trace written to " + path);
  }
  PrintReport(options, result, metrics, expected);
  PrintJson(result, listed);
  return result.correct ? 0 : 1;
}
