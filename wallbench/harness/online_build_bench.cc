// online_build: the foreground cost of the DDL AutoIndex applies to a live
// system. Set-up lets the tuner recommend an index for a point-query
// template on a 200k-row table; then two open-loop writer sessions insert
// known keys while the main thread repeatedly builds that index with
// Database::CreateIndex, probes it, and drops it again.

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/checks.h"
#include "harness/percentiles.h"
#include "harness/run.h"
#include "util/random.h"
#include "util/string_util.h"

namespace wallbench {
namespace {

using autoindex::AutoIndexConfig;
using autoindex::AutoIndexManager;
using autoindex::Database;
using autoindex::ExecResult;
using autoindex::Row;
using autoindex::Session;
using autoindex::StatusOr;
using autoindex::Value;
using autoindex::ValueType;

constexpr size_t kRows = 200000;
constexpr int64_t kBValues = 1000;
constexpr int kWriters = 2;
// Offered inserts/s per writer: fixed, and well below what one session
// sustains outside a build.
constexpr double kWriterRate = 1000.0;
// One build cycle (build, key check, probes, drop, probes) starts every
// kCycleSeconds; a build takes about half of that.
constexpr double kCycleSeconds = 1.0;
// The writers run alone for this long before the first build (warm-up).
constexpr double kWarmupSeconds = 0.5;
// Point probes run with and without the index in each build cycle.
constexpr int kProbes = 2;
// Keys inserted during a build that are looked up through the new index.
constexpr size_t kSampleKeys = 4;

int64_t BOf(uint64_t seed, int64_t key) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(key);
  x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<int64_t>((x ^ (x >> 29)) % kBValues);
}

std::unique_ptr<Database> PopulateTable(uint64_t seed) {
  auto db = std::make_unique<Database>();
  autoindex::CheckOk(db->CreateTable(
      "t", autoindex::Schema({{"a", ValueType::kInt},
                              {"b", ValueType::kInt},
                              {"c", ValueType::kInt}})));
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t a = static_cast<int64_t>(i);
    rows.push_back({Value(a), Value(BOf(seed, a)), Value(a % 97)});
  }
  autoindex::CheckOk(db->BulkInsert("t", std::move(rows)));
  db->Analyze();
  return db;
}

// Set-up: populate, let the tuner observe the probe template and apply its
// recommendation in one timed round, then drop the index again so the
// timed phase starts untuned. Returns the recommended index.
IndexDef Setup(uint64_t seed, std::unique_ptr<Database>* db, TuneLog* tune,
               SpanRecorder* recorder, RunResult* result) {
  *db = PopulateTable(seed);
  AutoIndexManager manager(db->get(), AutoIndexConfig());
  autoindex::Random rng(seed);
  for (int i = 0; i < 64; ++i) {
    ScopedSpan span(recorder, "core.observe");
    manager.ObserveOnly(autoindex::StrFormat(
        "SELECT a, c FROM t WHERE b = %lld",
        static_cast<long long>(rng.Uniform(kBValues))));
  }
  TuneToFixpoint(&manager, /*max_rounds=*/1, recorder, tune);
  for (const std::string& e : tune->errors) {
    result->Fail("tuning apply failed: " + e);
  }
  IndexDef def;
  for (const autoindex::BuiltIndex* index :
       (*db)->index_manager().AllIndexes()) {
    if (index->def().table == "t") def = index->def();
  }
  // The manager does not uninstall the feedback hook it registered on the
  // database; remove it before the manager is destroyed.
  (*db)->set_execution_feedback_hook(nullptr);
  if (def.table.empty()) {
    result->Fail("the tuner recommended no index for t");
    return def;
  }
  ScopedSpan span(recorder, "index.drop");
  const Status s = (*db)->DropIndex(def.Key());
  if (!s.ok()) result->Fail("DropIndex: " + s.ToString());
  return def;
}

struct Write {
  Clock::time_point intended;
  Clock::time_point issued;
  Clock::time_point done;
  int64_t key = 0;
};

// One writer's acknowledged inserts, readable by the main thread while the
// writer runs.
struct WriterLog {
  std::mutex mu;
  std::vector<Write> writes;  // guarded by mu
  StatementTally tally;       // guarded by mu
  uint64_t failed = 0;        // guarded by mu
  std::string first_error;    // guarded by mu
  int64_t next_index = 0;     // writer thread only
};

struct Window {
  Clock::time_point start;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> builds;
  std::vector<double> build_ms;
  std::vector<double> index_mib;
  std::vector<double> probe_indexed_us;
  std::vector<double> probe_scan_us;
  std::vector<Write> writes;
  StatementTally tally;
  uint64_t failed = 0;
  double seconds = 0.0;
};

double TimedProbe(Session* session, int64_t b, SpanRecorder* recorder,
                  RunResult* result) {
  const std::string sql = autoindex::StrFormat(
      "SELECT COUNT(*) FROM t WHERE b = %lld", static_cast<long long>(b));
  const Clock::time_point start = Clock::now();
  const bool ok = ParseAndExecute(session, sql, recorder).ok();
  const double us = UsBetween(start, Clock::now());
  if (!ok) result->Fail("probe failed: " + sql);
  return us;
}

// Keys acknowledged inside [begin, end] must each be found exactly once
// through the freshly published index.
void CheckSampleKeys(Session* session, const IndexDef& def, uint64_t seed,
                     std::vector<WriterLog>* logs, Clock::time_point begin,
                     Clock::time_point end, RunResult* result) {
  std::vector<int64_t> keys;
  for (WriterLog& log : *logs) {
    std::lock_guard<std::mutex> lock(log.mu);
    for (auto it = log.writes.rbegin();
         it != log.writes.rend() && keys.size() < kSampleKeys; ++it) {
      if (it->done < begin) break;
      if (it->done <= end) keys.push_back(it->key);
    }
  }
  const std::string name = def.DisplayName();
  for (int64_t key : keys) {
    const std::string sql = autoindex::StrFormat(
        "SELECT a FROM t WHERE b = %lld", static_cast<long long>(BOf(seed, key)));
    StatusOr<ExecResult> r = ParseAndExecute(session, sql, nullptr);
    if (!r.ok()) {
      result->Fail("key lookup failed: " + r.status().ToString());
      continue;
    }
    bool used = false;
    for (const std::string& idx : r->indexes_used) used |= idx == name;
    if (!used) result->Fail("key lookup did not use " + name + ": " + sql);
    const size_t found = CountKey(r->rows, 0, key);
    if (found != 1) {
      result->Fail("key " + std::to_string(key) + " inserted during the build " +
                   "found " + std::to_string(found) + " times via " + name);
    }
  }
}

// Writers insert at the fixed rate until the deadline while the main
// thread cycles build -> key check -> probes -> drop -> probes.
Window RunWindow(Database* db, const IndexDef& def, uint64_t seed,
                 double seconds, SpanRecorder* recorder, BuildTimer* timer,
                 std::vector<WriterLog>* logs, RunResult* result) {
  Window window;
  const Clock::time_point start = Clock::now();
  window.start = start;
  const auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline = at(seconds);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      WriterLog& log = (*logs)[w];
      std::unique_ptr<Session> session = db->CreateSession();
      const double offset = static_cast<double>(w) / (kWriters * kWriterRate);
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point intended =
            at(offset + static_cast<double>(i) / kWriterRate);
        if (intended >= deadline) break;
        std::this_thread::sleep_until(intended);
        const int64_t key =
            static_cast<int64_t>(kRows) + w + kWriters * log.next_index++;
        const std::string sql = autoindex::StrFormat(
            "INSERT INTO t VALUES (%lld, %lld, %lld)",
            static_cast<long long>(key),
            static_cast<long long>(BOf(seed, key)),
            static_cast<long long>(key % 97));
        Write write;
        write.intended = intended;
        write.issued = Clock::now();
        write.key = key;
        StatusOr<ExecResult> r = ParseAndExecute(session.get(), sql, recorder);
        write.done = Clock::now();
        std::lock_guard<std::mutex> lock(log.mu);
        if (r.ok()) {
          log.writes.push_back(write);
          log.tally.Add(r->stats, true);
        } else {
          ++log.failed;
          if (log.first_error.empty()) log.first_error = r.status().ToString();
        }
      }
    });
  }

  std::unique_ptr<Session> session = db->CreateSession();
  autoindex::Random rng(seed ^ 0x5bd1e995ULL);
  for (int cycle = 0; result->correct; ++cycle) {
    // Cycles start on a fixed schedule, so each build's stall drains
    // before the next one and builds do not pile their stalls up.
    const Clock::time_point cycle_start =
        at(kWarmupSeconds + cycle * kCycleSeconds);
    if (cycle_start >= deadline) break;
    std::this_thread::sleep_until(cycle_start);
    Clock::time_point begin;
    Clock::time_point end;
    {
      ScopedSpan span(recorder, "index.create");
      timer->BeginBuild();
      begin = Clock::now();
      const Status s = db->CreateIndex(def);
      end = Clock::now();
      if (!s.ok()) {
        result->Fail("CreateIndex: " + s.ToString());
        break;
      }
    }
    window.builds.emplace_back(begin, end);
    window.build_ms.push_back(MsBetween(begin, end));
    for (const autoindex::BuiltIndex* index : db->index_manager().AllIndexes()) {
      if (index->def() == def) {
        window.index_mib.push_back(static_cast<double>(index->SizeBytes()) /
                                   (1024.0 * 1024.0));
      }
    }
    CheckSampleKeys(session.get(), def, seed, logs, begin, end, result);
    for (int p = 0; p < kProbes; ++p) {
      window.probe_indexed_us.push_back(
          TimedProbe(session.get(), rng.Uniform(kBValues), recorder, result));
    }
    {
      ScopedSpan span(recorder, "index.drop");
      const Status s = db->DropIndex(def.Key());
      if (!s.ok()) result->Fail("DropIndex: " + s.ToString());
    }
    for (int p = 0; p < kProbes; ++p) {
      window.probe_scan_us.push_back(
          TimedProbe(session.get(), rng.Uniform(kBValues), recorder, result));
    }
  }
  for (std::thread& t : writers) t.join();
  window.seconds = MsBetween(start, Clock::now()) / 1000.0;
  for (WriterLog& log : *logs) {
    window.writes.insert(window.writes.end(), log.writes.begin(),
                         log.writes.end());
    log.writes.clear();
    window.tally.Merge(log.tally);
    log.tally = StatementTally();
    window.failed += log.failed;
    log.failed = 0;
    if (!log.first_error.empty()) {
      result->Fail("insert failed: " + log.first_error);
      log.first_error.clear();
    }
  }
  return window;
}

// Response times (from the intended start) of the writes that overlap a
// build window, per sub-window of their intended start.
std::vector<std::vector<double>> StalledWrites(const Window& window,
                                               double seconds) {
  std::vector<std::vector<double>> us(kSubWindows);
  for (const Write& w : window.writes) {
    for (const auto& [begin, end] : window.builds) {
      if (w.intended < end && w.done > begin) {
        us[SubWindowOf(UsBetween(window.start, w.intended) / 1e6, seconds)]
            .push_back(UsBetween(w.intended, w.done));
        break;
      }
    }
  }
  return us;
}

double MeanServiceUs(const Window& window) {
  double total = 0.0;
  for (const Write& w : window.writes) total += UsBetween(w.issued, w.done);
  return window.writes.empty() ? 0.0 : total / window.writes.size();
}

}  // namespace

RunResult RunOnlineBuild(const RunOptions& options) {
  RunResult result;
  SpanRecorder recorder;
  SpanRecorder* traced = options.trace ? &recorder : nullptr;

  // The run keeps the first set-up; the other repeats run after the window
  // so that they are spread over the run rather than bunched at its start.
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  const auto run_setup = [&](std::unique_ptr<Database>* db, TuneLog* log,
                             SpanRecorder* rec) {
    const Clock::time_point start = Clock::now();
    IndexDef recommended = Setup(options.seed, db, log, rec, &result);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    round_ms.insert(round_ms.end(), log->round_ms.begin(), log->round_ms.end());
    result.Note(DescribeTune(*log));
    return recommended;
  };
  std::unique_ptr<Database> db;
  TuneLog tune;
  const IndexDef def = run_setup(&db, &tune, traced);
  if (!result.correct) return result;
  result.Note("table t: " + std::to_string(kRows) + " rows; index " +
              def.Key() + "; " + std::to_string(kWriters) +
              " writers offering " +
              std::to_string(static_cast<int>(kWriterRate)) + " inserts/s each");

  std::vector<WriterLog> logs(kWriters);
  BuildTimer timer(db.get(), traced);
  LayerInputs layers;
  Window window;
  uint64_t acked = 0;
  if (!options.trace) {
    window = RunWindow(db.get(), def, options.seed, options.seconds, nullptr,
                       &timer, &logs, &result);
    acked += window.writes.size();
  } else {
    const Window untraced = RunWindow(db.get(), def, options.seed,
                                      options.seconds / 2, nullptr, &timer,
                                      &logs, &result);
    acked += untraced.writes.size();
    result.attempted += untraced.writes.size() + untraced.failed;
    result.failed += untraced.failed;
    layers.untraced_service_us = MeanServiceUs(untraced);
    const RegistryPoint before = RegistryPoint::Take();
    window = RunWindow(db.get(), def, options.seed, options.seconds / 2,
                       &recorder, &timer, &logs, &result);
    AddLatchDelta(before, RegistryPoint::Take(), &layers);
    acked += window.writes.size();
    layers.traced_service_us = MeanServiceUs(window);
    layers.tally = window.tally;
    for (const Write& w : window.writes) {
      layers.generator_lag_us.push_back(UsBetween(w.intended, w.issued));
    }
  }
  result.attempted += window.writes.size() + window.failed;
  result.failed += window.failed;
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " inserts failed");
  }

  // The table holds the initial rows plus every acknowledged insert.
  {
    std::unique_ptr<Session> session = db->CreateSession();
    StatusOr<ExecResult> r =
        ParseAndExecute(session.get(), "SELECT COUNT(*) FROM t", nullptr);
    const int64_t expected = static_cast<int64_t>(kRows + acked);
    if (!r.ok() || r->rows.size() != 1 || r->rows[0].empty() ||
        r->rows[0][0].type() != ValueType::kInt ||
        r->rows[0][0].AsInt() != expected) {
      result.Fail("row count is not initial rows + acknowledged inserts (" +
                  std::to_string(expected) + ")");
    }
  }
  const std::string issues = StructuralIssues(*db);
  if (!issues.empty()) result.Fail("CheckAll: " + issues);
  if (!result.correct) return result;

  if (options.trace) {
    layers.tune = tune;
    layers.build_ms = window.build_ms;
    EmitPerLayer(recorder, &layers, &result);
    return result;
  }
  for (int i = 1; i < kSetupRepeats; ++i) {
    std::unique_ptr<Database> scratch;
    TuneLog log;
    run_setup(&scratch, &log, nullptr);
  }
  const std::vector<std::vector<double>> stalled =
      StalledWrites(window, options.seconds);
  size_t stalled_count = 0;
  for (const std::vector<double>& sub : stalled) stalled_count += sub.size();
  result.EndToEnd("setup_s", Median(setup_s), "s",
                  "median of " + std::to_string(setup_s.size()));
  result.EndToEnd("throughput_sps",
                  static_cast<double>(window.writes.size()) / window.seconds,
                  "1/s", "acknowledged inserts");
  ReportLatencyBySubWindow(stalled, &result);
  result.EndToEnd("tuning_round_ms", Median(round_ms), "ms",
                  "rounds=" + std::to_string(round_ms.size()));
  // Each cycle probes with and without the index moments apart.
  std::vector<double> cycle_speedup;
  for (size_t i = 0; i + kProbes <= window.probe_scan_us.size(); i += kProbes) {
    const std::vector<double> scan(window.probe_scan_us.begin() + i,
                                   window.probe_scan_us.begin() + i + kProbes);
    const std::vector<double> indexed(
        window.probe_indexed_us.begin() + i,
        window.probe_indexed_us.begin() + i + kProbes);
    cycle_speedup.push_back(Mean(scan) / Mean(indexed));
  }
  result.EndToEnd("tuned_speedup", Median(cycle_speedup), "ratio",
                  "probe without / with the index, median of " +
                      std::to_string(cycle_speedup.size()) + " cycles");
  result.EndToEnd("index_mib", Median(window.index_mib), "MiB");
  result.EndToEnd("build_ms", Median(window.build_ms), "ms",
                  "builds=" + std::to_string(window.build_ms.size()));
  result.EndToEnd("peak_rss_mib", PeakRssMib(), "MiB");
  result.Note("latency_* are writes overlapping a build window (" +
              std::to_string(stalled_count) + " of " +
              std::to_string(window.writes.size()) + ")");
  return result;
}

}  // namespace wallbench
