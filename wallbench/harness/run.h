#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/manager.h"
#include "engine/durability.h"
#include "engine/executor.h"
#include "engine/session.h"
#include "harness/spans.h"
#include "persist/wal.h"
#include "util/metrics.h"

namespace wallbench {

using autoindex::ExecStats;
using autoindex::IndexDef;
using autoindex::Status;

// Command-line parameters of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout (WAL files, trace JSON).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Printed beside the value (e.g. the sample count of a percentile).
  std::string detail;
};

// Everything a workload reports. `end_to_end` and `per_layer` must each
// carry every metric named in BENCHMARK.json; main() refuses to print a
// result that does not.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<SpanSummary> spans;
  std::string chrome_trace;  // traced runs: the spans as Chrome trace JSON

  void Fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  void EndToEnd(std::string name, double value, std::string unit,
                std::string detail = {}) {
    end_to_end.push_back({std::move(name), value, std::move(unit),
                          std::move(detail)});
  }
};

RunResult RunTpccInproc(const RunOptions& options);
RunResult RunTpccLoopback(const RunOptions& options);
RunResult RunTpcdsTune(const RunOptions& options);
RunResult RunOnlineBuild(const RunOptions& options);

// --- Shared measurement helpers -----------------------------------------

double PeakRssMib();
double MsBetween(Clock::time_point a, Clock::time_point b);
double UsBetween(Clock::time_point a, Clock::time_point b);

// Parses then executes one statement on `session`, the parse inside a
// sql.parse span and the execution inside engine.execute.<kind>.
autoindex::StatusOr<autoindex::ExecResult> ParseAndExecute(
    autoindex::Session* session, const std::string& sql,
    SpanRecorder* recorder);

// Exact p50/p99 of `samples` (sorted in place) as end-to-end metrics,
// each with its sample count; a percentile without enough samples beyond
// it fails the run instead of being printed.
void ReportLatency(std::vector<double>* samples, RunResult* result);

// Timed windows are cut into this many equal sub-windows; rates and
// percentiles are reported as the median over them, so one slow stretch
// of a shared machine does not decide the run.
inline constexpr int kSubWindows = 5;

// The sub-window an event at `offset_s` into a `seconds`-long window
// belongs to (clamped to the last one).
int SubWindowOf(double offset_s, double seconds);

// As ReportLatency, but each percentile is the median over sub-windows of
// the exact percentile within each sub-window.
void ReportLatencyBySubWindow(std::vector<std::vector<double>> by_sub,
                              RunResult* result);

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// Sums of per-statement execution counters.
struct StatementTally {
  uint64_t statements = 0;
  uint64_t writes = 0;
  uint64_t tuples_examined = 0;
  uint64_t rows_returned = 0;
  uint64_t pages_read = 0;
  uint64_t used_index = 0;
  uint64_t index_entries_written = 0;

  void Add(const ExecStats& stats, bool write);
  void Merge(const StatementTally& other);
};

// Counter and histogram values of the process-wide metrics registry at one
// instant, so a window's activity is the difference of two points.
struct RegistryPoint {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, autoindex::util::HistogramSnapshot> histograms;

  static RegistryPoint Take();
  uint64_t CounterDelta(const RegistryPoint& before,
                        const std::string& name) const;
  uint64_t HistogramCountDelta(const RegistryPoint& before,
                               const std::string& name) const;
  uint64_t HistogramSumDelta(const RegistryPoint& before,
                             const std::string& name) const;
};

// What a run of management rounds did.
struct TuneLog {
  std::vector<double> round_ms;  // wall time of RunManagementRound
  std::vector<double> candidate_gen_ms;
  std::vector<double> search_ms;
  std::vector<double> apply_ms;  // the rest of the round, mostly DDL
  int rounds_to_fixpoint = 0;
  int indexes_added = 0;
  int indexes_dropped = 0;
  int index_churn = 0;  // added, then dropped again within the run
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<std::string> errors;
};

// Runs RunManagementRound until a round changes nothing (at most
// `max_rounds`), timing each round.
void TuneToFixpoint(autoindex::AutoIndexManager* manager, int max_rounds,
                    SpanRecorder* recorder, TuneLog* log);

// One line listing each round's wall time and the net index changes.
std::string DescribeTune(const TuneLog& log);

// The online build's phase boundaries, timestamped through the database's
// public build hook; also emits index.* spans into `recorder` (nullable).
class BuildTimer {
 public:
  BuildTimer(autoindex::Database* db, SpanRecorder* recorder);
  ~BuildTimer();

  BuildTimer(const BuildTimer&) = delete;
  BuildTimer& operator=(const BuildTimer&) = delete;

  // Marks the start of a CreateIndex call made by the benchmark (hook-only
  // builds, e.g. inside a tuning round, start at their registration).
  void BeginBuild();
  // Wall time of each finished build (start to publish), in ms.
  const std::vector<double>& build_ms() const { return build_ms_; }

 private:
  void OnPhase(autoindex::Database::IndexBuildPhase phase);

  autoindex::Database* db_;
  SpanRecorder* recorder_;
  bool started_ = false;
  Clock::time_point start_;
  Clock::time_point last_;
  std::vector<double> build_ms_;
};

// DurabilityLog decorator around persist::Wal that times each append and
// counts the bytes it added. Appends arrive serialized (the database holds
// its WAL mutex), so the counters only need to be readable afterwards.
class TimedWal : public autoindex::DurabilityLog {
 public:
  explicit TimedWal(std::unique_ptr<autoindex::persist::Wal> wal)
      : wal_(std::move(wal)) {}

  Status AppendStatement(const autoindex::Statement& stmt,
                         uint64_t version) override {
    return Timed([&] { return wal_->AppendStatement(stmt, version); });
  }
  Status AppendCreateTable(const std::string& name,
                           const autoindex::Schema& schema,
                           uint64_t version) override {
    return Timed([&] { return wal_->AppendCreateTable(name, schema, version); });
  }
  Status AppendCreateIndex(const IndexDef& def, uint64_t version) override {
    return Timed([&] { return wal_->AppendCreateIndex(def, version); });
  }
  Status AppendDropIndex(const std::string& key_or_name,
                         uint64_t version) override {
    return Timed([&] { return wal_->AppendDropIndex(key_or_name, version); });
  }
  Status AppendBulkInsert(const std::string& table,
                          const std::vector<autoindex::Row>& rows,
                          uint64_t version) override {
    return Timed([&] { return wal_->AppendBulkInsert(table, rows, version); });
  }
  Status AppendAnalyze(const std::string& table, uint64_t version) override {
    return Timed([&] { return wal_->AppendAnalyze(table, version); });
  }
  Status OnCheckpoint(uint64_t version) override {
    return wal_->OnCheckpoint(version);
  }

  // Where append spans go (null: not traced). May change between windows
  // while appending threads are idle.
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

  uint64_t appends() const { return appends_.load(); }
  uint64_t bytes() const { return bytes_.load(); }
  double append_us() const { return ns_.load() / 1000.0; }
  void ResetCounters() {
    appends_ = 0;
    bytes_ = 0;
    ns_ = 0;
  }

 private:
  template <typename Fn>
  Status Timed(Fn append) {
    ScopedSpan span(recorder_.load(), "persist.wal_append");
    const uint64_t size_before = wal_->size_bytes();
    const Clock::time_point start = Clock::now();
    Status status = append();
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
               .count();
    appends_ += 1;
    bytes_ += wal_->size_bytes() - size_before;
    return status;
  }

  std::unique_ptr<autoindex::persist::Wal> wal_;
  std::atomic<SpanRecorder*> recorder_{nullptr};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> ns_{0};
};

// Inputs of the per-layer metrics: each workload fills what it measured
// and leaves the rest zero, and EmitPerLayer reports every metric.
struct LayerInputs {
  StatementTally tally;
  std::vector<double> build_ms;  // CreateIndex wall times (or round means)
  uint64_t latch_acquisitions = 0;
  uint64_t latch_contended = 0;
  uint64_t latch_wait_us = 0;
  TuneLog tune;
  uint64_t wal_appends = 0;
  double wal_append_us = 0.0;
  uint64_t wal_bytes = 0;
  uint64_t net_queries = 0;
  double net_server_statement_us = 0.0;  // mean from the server's metrics
  uint64_t net_bytes = 0;
  uint64_t net_busy = 0;
  std::vector<double> generator_lag_us;
  double untraced_service_us = 0.0;  // mean per statement, tracing off
  double traced_service_us = 0.0;    // same, tracing on
};

void EmitPerLayer(const SpanRecorder& recorder, LayerInputs* in,
                  RunResult* result);

// Fills latch_* from two registry points around a window.
void AddLatchDelta(const RegistryPoint& before, const RegistryPoint& after,
                   LayerInputs* in);

}  // namespace wallbench
