#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "harness/percentiles.h"
#include "harness/run.h"
#include "sql/parser.h"

namespace wallbench {

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void ReportLatency(std::vector<double>* samples, RunResult* result) {
  std::sort(samples->begin(), samples->end());
  const std::string n = "n=" + std::to_string(samples->size());
  for (const auto& [name, p] :
       {std::pair<const char*, double>{"latency_p50_us", 0.50},
        std::pair<const char*, double>{"latency_p99_us", 0.99}}) {
    const std::optional<double> value = ExactPercentile(*samples, p);
    if (!value) {
      result->Fail(std::string(name) + ": too few samples (" + n + ")");
      continue;
    }
    result->EndToEnd(name, *value, "us", n);
  }
}

int SubWindowOf(double offset_s, double seconds) {
  const int sub = static_cast<int>(offset_s / seconds * kSubWindows);
  return std::clamp(sub, 0, kSubWindows - 1);
}

void ReportLatencyBySubWindow(std::vector<std::vector<double>> by_sub,
                              RunResult* result) {
  size_t n = 0;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::vector<double>& samples : by_sub) {
    std::sort(samples.begin(), samples.end());
    n += samples.size();
    const std::optional<double> a = ExactPercentile(samples, 0.50);
    const std::optional<double> b = ExactPercentile(samples, 0.99);
    if (!a || !b) {
      // Too few samples in a sub-window for its p99: use one pooled
      // percentile over the whole window instead.
      std::vector<double> pooled;
      for (const std::vector<double>& sub : by_sub) {
        pooled.insert(pooled.end(), sub.begin(), sub.end());
      }
      ReportLatency(&pooled, result);
      return;
    }
    p50.push_back(*a);
    p99.push_back(*b);
  }
  const std::string detail = "median of " + std::to_string(by_sub.size()) +
                             " sub-windows, n=" + std::to_string(n);
  result->EndToEnd("latency_p50_us", Median(p50), "us", detail);
  result->EndToEnd("latency_p99_us", Median(p99), "us", detail);
}

namespace {

const char* ExecuteSpanName(autoindex::StatementKind kind) {
  using autoindex::StatementKind;
  switch (kind) {
    case StatementKind::kSelect:
      return "engine.execute.select";
    case StatementKind::kInsert:
      return "engine.execute.insert";
    case StatementKind::kUpdate:
      return "engine.execute.update";
    case StatementKind::kDelete:
      return "engine.execute.delete";
  }
  return "engine.execute";
}

}  // namespace

autoindex::StatusOr<autoindex::ExecResult> ParseAndExecute(
    autoindex::Session* session, const std::string& sql,
    SpanRecorder* recorder) {
  autoindex::StatusOr<autoindex::Statement> stmt = [&] {
    ScopedSpan span(recorder, "sql.parse");
    return autoindex::ParseSql(sql);
  }();
  if (!stmt.ok()) return stmt.status();
  ScopedSpan span(recorder, ExecuteSpanName(stmt->kind));
  return session->Execute(*stmt);
}

void StatementTally::Add(const ExecStats& stats, bool write) {
  ++statements;
  if (write) ++writes;
  tuples_examined += stats.tuples_examined;
  rows_returned += stats.rows_returned;
  pages_read += stats.heap_pages_read + stats.index_pages_read;
  if (stats.used_index) ++used_index;
  index_entries_written += stats.index_entries_written;
}

void StatementTally::Merge(const StatementTally& o) {
  statements += o.statements;
  writes += o.writes;
  tuples_examined += o.tuples_examined;
  rows_returned += o.rows_returned;
  pages_read += o.pages_read;
  used_index += o.used_index;
  index_entries_written += o.index_entries_written;
}

RegistryPoint RegistryPoint::Take() {
  using Kind = autoindex::util::MetricsRegistry::Kind;
  RegistryPoint point;
  for (const auto& m : autoindex::util::MetricsRegistry::Default().Snapshot()) {
    if (m.kind == Kind::kCounter) point.counters[m.name] = m.counter;
    if (m.kind == Kind::kHistogram) point.histograms[m.name] = m.hist;
  }
  return point;
}

uint64_t RegistryPoint::CounterDelta(const RegistryPoint& before,
                                     const std::string& name) const {
  const auto now = counters.find(name);
  if (now == counters.end()) return 0;
  const auto then = before.counters.find(name);
  return now->second - (then == before.counters.end() ? 0 : then->second);
}

uint64_t RegistryPoint::HistogramCountDelta(const RegistryPoint& before,
                                            const std::string& name) const {
  const auto now = histograms.find(name);
  if (now == histograms.end()) return 0;
  const auto then = before.histograms.find(name);
  return now->second.count -
         (then == before.histograms.end() ? 0 : then->second.count);
}

uint64_t RegistryPoint::HistogramSumDelta(const RegistryPoint& before,
                                          const std::string& name) const {
  const auto now = histograms.find(name);
  if (now == histograms.end()) return 0;
  const auto then = before.histograms.find(name);
  return now->second.sum_us -
         (then == before.histograms.end() ? 0 : then->second.sum_us);
}

void TuneToFixpoint(autoindex::AutoIndexManager* manager, int max_rounds,
                    SpanRecorder* recorder, TuneLog* log) {
  std::vector<std::string> added_keys;
  const RegistryPoint before = RegistryPoint::Take();
  for (int round = 0; round < max_rounds; ++round) {
    autoindex::TuningResult r;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(recorder, "core.round");
      r = manager->RunManagementRound(/*apply=*/true);
    }
    const double ms = MsBetween(start, Clock::now());
    log->round_ms.push_back(ms);
    log->candidate_gen_ms.push_back(r.candidate_gen_ms);
    log->search_ms.push_back(r.search_ms);
    log->apply_ms.push_back(
        std::max(0.0, ms - r.candidate_gen_ms - r.search_ms));
    ++log->rounds_to_fixpoint;
    for (const autoindex::ApplyError& e : r.apply_errors) {
      log->errors.push_back((e.drop ? "drop " : "create ") + e.def.Key() +
                            ": " + e.message);
    }
    log->indexes_added += static_cast<int>(r.added.size());
    log->indexes_dropped += static_cast<int>(r.removed.size());
    for (const IndexDef& def : r.removed) {
      if (std::find(added_keys.begin(), added_keys.end(), def.Key()) !=
          added_keys.end()) {
        ++log->index_churn;
      }
    }
    for (const IndexDef& def : r.added) added_keys.push_back(def.Key());
    if (r.added.empty() && r.removed.empty()) break;
  }
  const RegistryPoint after = RegistryPoint::Take();
  log->cache_hits += after.CounterDelta(before, "estimator.cache.hits");
  log->cache_misses += after.CounterDelta(before, "estimator.cache.misses");
}

std::string DescribeTune(const TuneLog& log) {
  std::string out = "tuning rounds (ms):";
  char buf[32];
  for (double ms : log.round_ms) {
    std::snprintf(buf, sizeof(buf), " %.1f", ms);
    out += buf;
  }
  return out + "; +" + std::to_string(log.indexes_added) + " -" +
         std::to_string(log.indexes_dropped) + " indexes";
}

BuildTimer::BuildTimer(autoindex::Database* db, SpanRecorder* recorder)
    : db_(db), recorder_(recorder) {
  db_->set_index_build_hook(
      [this](autoindex::Database::IndexBuildPhase phase) { OnPhase(phase); });
}

BuildTimer::~BuildTimer() { db_->set_index_build_hook(nullptr); }

void BuildTimer::BeginBuild() {
  started_ = true;
  start_ = Clock::now();
}

void BuildTimer::OnPhase(autoindex::Database::IndexBuildPhase phase) {
  using Phase = autoindex::Database::IndexBuildPhase;
  const Clock::time_point now = Clock::now();
  const auto span = [&](const char* name) {
    if (recorder_ != nullptr) recorder_->AddCompleted(name, last_, now);
  };
  switch (phase) {
    case Phase::kRegistered:
      if (!started_) start_ = now;
      last_ = start_;
      span("index.register");
      break;
    case Phase::kScanned:
      span("index.scan");
      break;
    case Phase::kCaughtUp:
      span("index.catchup");
      break;
    case Phase::kPublished:
      span("index.publish");
      build_ms_.push_back(MsBetween(start_, now));
      started_ = false;
      break;
  }
  last_ = now;
}

void AddLatchDelta(const RegistryPoint& before, const RegistryPoint& after,
                   LayerInputs* in) {
  in->latch_acquisitions += after.CounterDelta(before, "latch.acquisitions");
  in->latch_contended += after.CounterDelta(before, "latch.contended");
  in->latch_wait_us += after.HistogramSumDelta(before, "latch.wait_us");
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void EmitPerLayer(const SpanRecorder& recorder, LayerInputs* in,
                  RunResult* result) {
  // The file keeps the first spans; the per-layer table uses all of them.
  constexpr size_t kMaxTraceEvents = 200000;
  result->spans = recorder.Summarize();
  result->chrome_trace = recorder.ChromeTraceJson(kMaxTraceEvents);
  std::map<std::string, SpanSummary> spans;
  for (const SpanSummary& s : result->spans) spans[s.name] = s;
  const auto mean_span = [&spans](const char* name, double scale) {
    const auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return it->second.total_us / it->second.count / scale;
  };
  const auto add = [result](const char* name, double value, const char* unit) {
    result->per_layer.push_back({name, value, unit, {}});
  };
  const StatementTally& t = in->tally;
  const TuneLog& tune = in->tune;

  add("sql.parse_us", mean_span("sql.parse", 1.0), "us");
  add("engine.execute_us.select", mean_span("engine.execute.select", 1.0),
      "us");
  add("engine.execute_us.insert", mean_span("engine.execute.insert", 1.0),
      "us");
  add("engine.execute_us.update", mean_span("engine.execute.update", 1.0),
      "us");
  add("engine.execute_us.delete", mean_span("engine.execute.delete", 1.0),
      "us");
  add("engine.tuples_per_row",
      Ratio(t.tuples_examined, std::max<uint64_t>(t.rows_returned, 1)),
      "ratio");
  add("engine.pages_per_stmt", Ratio(t.pages_read, t.statements), "count");
  add("engine.index_use_ratio", Ratio(t.used_index, t.statements), "ratio");
  add("storage.latch_wait_us", Ratio(in->latch_wait_us, t.statements), "us");
  add("storage.latch_contended_ratio",
      Ratio(in->latch_contended, in->latch_acquisitions), "ratio");
  add("index.register_ms", mean_span("index.register", 1000.0), "ms");
  add("index.scan_ms", mean_span("index.scan", 1000.0), "ms");
  add("index.catchup_ms", mean_span("index.catchup", 1000.0), "ms");
  add("index.publish_ms", mean_span("index.publish", 1000.0), "ms");
  add("index.build_ms", Mean(in->build_ms), "ms");
  add("index.drop_ms", mean_span("index.drop", 1000.0), "ms");
  add("index.entries_per_write", Ratio(t.index_entries_written, t.writes),
      "ratio");
  add("core.observe_us", mean_span("core.observe", 1.0), "us");
  add("core.candidate_gen_ms", Median(tune.candidate_gen_ms), "ms");
  add("core.search_ms", Median(tune.search_ms), "ms");
  add("core.apply_ms", Median(tune.apply_ms), "ms");
  add("core.round_ms", Median(tune.round_ms), "ms");
  add("core.rounds_to_fixpoint", tune.rounds_to_fixpoint, "count");
  add("core.indexes_added", tune.indexes_added, "count");
  add("core.indexes_dropped", tune.indexes_dropped, "count");
  add("core.index_churn", tune.index_churn, "count");
  add("core.estimator_cache_hit_ratio",
      Ratio(tune.cache_hits, tune.cache_hits + tune.cache_misses), "ratio");
  add("persist.wal_append_us", Ratio(in->wal_append_us, in->wal_appends),
      "us");
  add("persist.wal_bytes_per_write", Ratio(in->wal_bytes, in->wal_appends),
      "B");
  const double query_us = mean_span("net.query", 1.0);
  add("net.query_us", query_us, "us");
  add("net.overhead_us",
      in->net_queries > 0 ? query_us - in->net_server_statement_us : 0.0, "us");
  add("net.bytes_per_stmt", Ratio(in->net_bytes, in->net_queries), "B");
  add("net.busy_rejections", static_cast<double>(in->net_busy), "count");
  std::sort(in->generator_lag_us.begin(), in->generator_lag_us.end());
  add("bench.generator_lag_p99_us",
      ExactPercentile(in->generator_lag_us, 0.99).value_or(0.0), "us");
  add("bench.trace_overhead_pct",
      in->untraced_service_us > 0.0
          ? 100.0 * (in->traced_service_us / in->untraced_service_us - 1.0)
          : 0.0,
      "%");
}

}  // namespace wallbench
