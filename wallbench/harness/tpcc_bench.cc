// tpcc_inproc and tpcc_loopback: the TPC-C default mix replayed by one
// session per home warehouse, in-process (closed loop) or through
// net::Client against an in-process net::Server (open loop).

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "harness/checks.h"
#include "harness/percentiles.h"
#include "harness/run.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/tpcc.h"

namespace wallbench {
namespace {

using autoindex::AutoIndexConfig;
using autoindex::AutoIndexManager;
using autoindex::Database;
using autoindex::ExecResult;
using autoindex::Session;
using autoindex::StatusOr;
using autoindex::TpccConfig;
using autoindex::TpccWorkload;

// Sessions = warehouses. Two, on the 4-core machine the benchmark is sized
// for: with four, every core was busy and a co-tenant's burst slowed whole
// runs by a third (ten-seed throughput and p50 spreads of 0.27 and 0.46).
constexpr int kSessions = 2;
// Statements per session in the untimed warm-up pass (also the trace the
// tuner observes during set-up). The warm-up trace comes from a fixed
// seed: the tuner's choices follow the first statement it sees of each
// template, so a seeded warm-up would flip the tuned index set (and with
// it throughput by 2x) between seeds. --seed drives the timed statements.
constexpr size_t kWarmupPerSession = 4000;
constexpr uint64_t kWarmupSeed = 20220501;
// Times the timed database builds the tuned index set during warm-up.
constexpr int kBuildRounds = 5;
// Upper bound on one closed-loop session's rate, used to size the trace so
// a session never runs out of statements inside the window.
constexpr double kMaxSessionRate = 25000.0;
// Offered rate of the loopback open loop, statements/s over all sessions:
// well below what the sessions sustain closed-loop over loopback, so the
// queue stays short and latency reflects service, not overload; at
// 12,000/s over four connections the p99 swung 2x between runs.
constexpr double kLoopbackRate = 4000.0;
// Average statements per generated TPC-C transaction (default mix).
constexpr double kStatementsPerTxn = 8.0;
constexpr int kMaxTuningRounds = 8;

struct TpccInputs {
  TpccConfig config;
  std::vector<std::vector<std::string>> warmup;  // per home warehouse
  std::vector<std::vector<std::string>> timed;
};

bool IsSelect(const std::string& sql) { return sql.rfind("SELECT", 0) == 0; }

// The home warehouse of a generated statement, or 0 for the warehouse-free
// item lookups (which read only).
int WarehouseOf(const std::string& sql) {
  const size_t eq = sql.find("w_id = ");
  if (eq != std::string::npos) return std::atoi(sql.c_str() + eq + 7);
  if (sql.rfind("INSERT INTO", 0) == 0) {
    // VALUES (id, d_id, w_id, ...): every generated insert has w third.
    size_t pos = sql.find('(');
    for (int comma = 0; comma < 2 && pos != std::string::npos; ++comma) {
      pos = sql.find(',', pos + 1);
    }
    if (pos != std::string::npos) return std::atoi(sql.c_str() + pos + 1);
  }
  return 0;
}

// Generates a trace and splits it into one stream per home warehouse, in
// trace order, each cut at `per_session` statements.
std::vector<std::vector<std::string>> SessionStreams(const TpccConfig& config,
                                                     size_t per_session,
                                                     uint64_t seed) {
  const size_t txns = static_cast<size_t>(
      1.25 * per_session * kSessions / kStatementsPerTxn);
  std::vector<std::string> trace = TpccWorkload::Generate(config, txns, seed);
  std::vector<std::vector<std::string>> streams(kSessions);
  std::vector<std::string> pending;  // item lookups awaiting their warehouse
  for (std::string& sql : trace) {
    const int w = WarehouseOf(sql);
    if (w == 0) {
      pending.push_back(std::move(sql));
      continue;
    }
    std::vector<std::string>& dest = streams[w - 1];
    for (std::string& p : pending) {
      if (dest.size() < per_session) dest.push_back(std::move(p));
    }
    pending.clear();
    if (dest.size() < per_session) dest.push_back(std::move(sql));
  }
  return streams;
}

// The population keeps the generator's fixed seed too, so seeds differ in
// statement parameters, not in data shape.
TpccInputs MakeInputs(uint64_t seed, size_t timed_per_session) {
  TpccInputs in;
  in.config.warehouses = kSessions;
  in.warmup = SessionStreams(in.config, kWarmupPerSession, kWarmupSeed);
  in.timed = SessionStreams(in.config, timed_per_session, seed * 7919 + 17);
  return in;
}

// Per-session measurements of one window.
struct SessionWindow {
  // Latency from the intended start (closed loop: the issue), per
  // sub-window of the intended start.
  std::vector<std::vector<double>> latency_us =
      std::vector<std::vector<double>>(kSubWindows);
  std::vector<double> lag_us;  // open loop: actual issue - intended
  double service_us = 0.0;         // sum of issue -> completion
  StatementTally tally;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

struct WindowTotals {
  std::vector<std::vector<double>> latency_us =
      std::vector<std::vector<double>>(kSubWindows);
  std::vector<double> lag_us;
  StatementTally tally;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double service_us = 0.0;
  // From the window's start until its last statement completed.
  double seconds = 0.0;
  std::string first_error;

  double MeanServiceUs() const {
    return attempted > 0 ? service_us / attempted : 0.0;
  }
};

WindowTotals Merge(const std::vector<SessionWindow>& sessions,
                   double seconds) {
  WindowTotals t;
  t.seconds = seconds;
  for (const SessionWindow& s : sessions) {
    for (int i = 0; i < kSubWindows; ++i) {
      t.latency_us[i].insert(t.latency_us[i].end(), s.latency_us[i].begin(),
                             s.latency_us[i].end());
    }
    t.lag_us.insert(t.lag_us.end(), s.lag_us.begin(), s.lag_us.end());
    t.tally.Merge(s.tally);
    t.attempted += s.attempted;
    t.failed += s.failed;
    t.service_us += s.service_us;
    if (t.first_error.empty()) t.first_error = s.first_error;
  }
  return t;
}

// What set-up leaves for the timed phase.
struct TpccSetup {
  // Declared before the database so it is destroyed after it.
  std::unique_ptr<TimedWal> wal;
  std::unique_ptr<Database> db;  // populated, no secondary indexes yet
  std::vector<IndexDef> tuned;   // the index set the tuner settled on
  TuneLog tune;
  // The single-session reference for the interleaving check: the tuned
  // index set with the warm-up trace applied.
  std::unique_ptr<Database> replay;
  std::unique_ptr<Session> replay_session;
  // Per warehouse: warm-up statements on the default indexes / on the
  // tuned set, each pair timed back to back.
  std::vector<double> speedups;
};

// One single-session pass over `stream`; returns its wall time in ms.
double TimedPass(Session* session, const std::vector<std::string>& stream,
                 RunResult* result) {
  double pass_us = 0.0;
  for (const std::string& sql : stream) {
    const Clock::time_point start = Clock::now();
    const bool ok = ParseAndExecute(session, sql, nullptr).ok();
    pass_us += UsBetween(start, Clock::now());
    if (!ok) result->Fail("set-up statement failed: " + sql);
  }
  return pass_us / 1000.0;
}

std::unique_ptr<Database> PopulateWith(const TpccConfig& config,
                                       const std::vector<IndexDef>& indexes,
                                       RunResult* result) {
  auto db = std::make_unique<Database>();
  TpccWorkload::Populate(db.get(), config);
  for (const IndexDef& def : indexes) {
    const Status s = db->CreateIndex(def);
    if (!s.ok()) result->Fail("CreateIndex " + def.Key() + ": " + s.ToString());
  }
  return db;
}

// Set-up: a tuning database replays and observes the warm-up trace on the
// default indexes and tunes to a fixed point. Two fresh databases, one on
// the default indexes and one on the tuned set, then replay the warm-up
// trace warehouse by warehouse, alternating, for tuned_speedup; the tuned
// one stays as the single-session reference. A fourth, which serves the
// timed window, is populated with the WAL attached.
std::unique_ptr<TpccSetup> Setup(const TpccInputs& in,
                                 const std::string& wal_path,
                                 SpanRecorder* recorder, RunResult* result) {
  auto setup = std::make_unique<TpccSetup>();
  {
    Database tuning_db;
    TpccWorkload::Populate(&tuning_db, in.config);
    TpccWorkload::CreateDefaultIndexes(&tuning_db);
    AutoIndexManager manager(&tuning_db, AutoIndexConfig());
    std::unique_ptr<Session> session = tuning_db.CreateSession();
    for (const std::vector<std::string>& stream : in.warmup) {
      TimedPass(session.get(), stream, result);
    }
    for (const std::vector<std::string>& stream : in.warmup) {
      for (const std::string& sql : stream) {
        ScopedSpan span(recorder, "core.observe");
        manager.ObserveOnly(sql);
      }
    }
    TuneToFixpoint(&manager, kMaxTuningRounds, recorder, &setup->tune);
    for (const std::string& e : setup->tune.errors) {
      result->Fail("tuning apply failed: " + e);
    }
    for (const autoindex::BuiltIndex* index :
         tuning_db.index_manager().AllIndexes()) {
      setup->tuned.push_back(index->def());
    }
  }
  const std::unique_ptr<Database> untuned =
      PopulateWith(in.config, TpccWorkload::DefaultIndexes(), result);
  const std::unique_ptr<Session> untuned_session = untuned->CreateSession();
  setup->replay = PopulateWith(in.config, setup->tuned, result);
  setup->replay_session = setup->replay->CreateSession();
  for (const std::vector<std::string>& stream : in.warmup) {
    const double untuned_ms = TimedPass(untuned_session.get(), stream, result);
    setup->speedups.push_back(
        untuned_ms / TimedPass(setup->replay_session.get(), stream, result));
  }

  setup->db = std::make_unique<Database>();
  TpccWorkload::Populate(setup->db.get(), in.config);
  auto wal = autoindex::persist::Wal::Create(wal_path,
                                             setup->db->data_version());
  if (!wal.ok()) {
    result->Fail("cannot create WAL: " + wal.status().ToString());
    return setup;
  }
  setup->wal = std::make_unique<TimedWal>(std::move(*wal));
  setup->db->set_durability_log(setup->wal.get());
  return setup;
}

// What every set-up measured: the run keeps the first set-up, and the
// others run after the timed window so that the repeats are spread over
// the run rather than bunched at its start.
struct SetupRuns {
  std::vector<double> setup_s;
  std::vector<double> speedup;   // per warehouse pass pair
  std::vector<double> round_ms;  // mean tuning round per set-up

  std::unique_ptr<TpccSetup> Run(const TpccInputs& in,
                                 const std::string& wal_path,
                                 SpanRecorder* recorder, RunResult* result) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<TpccSetup> setup = Setup(in, wal_path, recorder, result);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    speedup.insert(speedup.end(), setup->speedups.begin(),
                   setup->speedups.end());
    round_ms.push_back(Mean(setup->tune.round_ms));
    result->Note(DescribeTune(setup->tune));
    return setup;
  }
};

// Builds the tuned index set on the quiescent timed database kBuildRounds
// times (dropping it in between); returns each round's mean CreateIndex
// wall time.
std::vector<double> BuildRounds(TpccSetup* setup, SpanRecorder* recorder,
                                RunResult* result) {
  BuildTimer timer(setup->db.get(), recorder);
  std::vector<double> round_mean_ms;
  for (int round = 0; round < kBuildRounds; ++round) {
    std::vector<double> build_ms;
    if (round > 0) {
      for (const IndexDef& def : setup->tuned) {
        ScopedSpan span(recorder, "index.drop");
        const Status s = setup->db->DropIndex(def.Key());
        if (!s.ok()) result->Fail("DropIndex " + def.Key() + ": " + s.ToString());
      }
    }
    for (const IndexDef& def : setup->tuned) {
      ScopedSpan span(recorder, "index.create");
      timer.BeginBuild();
      const Clock::time_point start = Clock::now();
      const Status s = setup->db->CreateIndex(def);
      build_ms.push_back(MsBetween(start, Clock::now()));
      if (!s.ok()) {
        result->Fail("CreateIndex " + def.Key() + ": " + s.ToString());
      }
    }
    round_mean_ms.push_back(Mean(build_ms));
  }
  return round_mean_ms;
}

// Runs each session's warm-up statements on its own thread through
// `execute(session, sql)`, which reports success.
template <typename Execute>
void WarmUp(const TpccInputs& in, Execute execute, RunResult* result) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (const std::string& sql : in.warmup[s]) {
        if (!execute(s, sql)) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failures > 0) {
    result->Fail(std::to_string(failures.load()) +
                 " warm-up statements failed");
  }
}

// The remaining set-up repeats, after the window; each is discarded.
void LaterSetups(const TpccInputs& in, const std::string& wal_path,
                 RunResult* result, SetupRuns* runs) {
  for (int i = 1; i < kSetupRepeats; ++i) {
    runs->Run(in, wal_path, nullptr, result);
  }
  std::filesystem::remove(wal_path);
}

std::string DescribeIndexes(const std::vector<IndexDef>& defs) {
  std::string out;
  for (const IndexDef& def : defs) out += (out.empty() ? "" : " ") + def.Key();
  return out;
}

double IndexMib(const Database& db) {
  double bytes = 0.0;
  for (const autoindex::BuiltIndex* index : db.index_manager().AllIndexes()) {
    bytes += static_cast<double>(index->SizeBytes());
  }
  return bytes / (1024.0 * 1024.0);
}

// The interleaving-independence check: the reference database (tuned
// index set, warm-up trace applied on one session during set-up) replays,
// on that one session, each warehouse's executed timed statements in
// trace order — only the writes, since reads cannot change the state —
// and its table digests must equal the timed database's.
void ReplayAndCompare(const TpccInputs& in, const std::vector<size_t>& executed,
                      TpccSetup* setup, RunResult* result) {
  for (size_t w = 0; w < in.timed.size(); ++w) {
    for (size_t i = 0; i < executed[w]; ++i) {
      const std::string& sql = in.timed[w][i];
      if (IsSelect(sql)) continue;
      if (!ParseAndExecute(setup->replay_session.get(), sql, nullptr).ok()) {
        result->Fail("replay statement failed: " + sql);
      }
    }
  }
  std::string why;
  if (!SameDigests(DigestTables(*setup->replay), DigestTables(*setup->db),
                   &why)) {
    result->Fail("final state differs from the single-session replay: " + why);
  }
}

// Folds the window's failures into the result.
void RecordOutcome(const WindowTotals& window, RunResult* result) {
  result->attempted = window.attempted;
  result->failed = window.failed;
  if (window.failed > 0) {
    result->Fail(std::to_string(window.failed) +
                 " statements failed; first: " + window.first_error);
  } else if (!window.first_error.empty()) {
    result->Fail(window.first_error);
  }
}

// Adds the traced window's counts to the untraced one's.
void Accumulate(const WindowTotals& traced, WindowTotals* total) {
  total->attempted += traced.attempted;
  total->failed += traced.failed;
  if (total->first_error.empty()) total->first_error = traced.first_error;
}

// Checks shared by both variants, once the load has stopped.
void FinalChecks(const TpccInputs& in, TpccSetup* setup,
                 const std::vector<size_t>& executed,
                 const std::string& wal_path, RunResult* result) {
  Database& db = *setup->db;
  db.set_durability_log(nullptr);
  const std::string issues = StructuralIssues(db);
  if (!issues.empty()) result->Fail("CheckAll: " + issues);
  ReplayAndCompare(in, executed, setup, result);
  std::filesystem::remove(wal_path);
}

void ReportEndToEnd(const WindowTotals& window, const SetupRuns& runs,
                    double index_mib, const std::vector<double>& build_ms,
                    RunResult* result) {
  result->EndToEnd("setup_s", Median(runs.setup_s), "s",
                   "median of " + std::to_string(runs.setup_s.size()));
  result->EndToEnd("throughput_sps",
                   static_cast<double>(window.attempted - window.failed) /
                       window.seconds,
                   "1/s", "until the last statement completed");
  ReportLatencyBySubWindow(window.latency_us, result);
  result->EndToEnd("tuning_round_ms", Median(runs.round_ms), "ms",
                   "median of " + std::to_string(runs.round_ms.size()) +
                       " set-ups' mean round");
  result->EndToEnd("tuned_speedup", Median(runs.speedup), "ratio",
                   "warm-up pass, default / tuned indexes");
  result->EndToEnd("index_mib", index_mib, "MiB");
  result->EndToEnd("build_ms", Median(build_ms), "ms",
                   "median of " + std::to_string(build_ms.size()) +
                       " rounds' mean CreateIndex");
  result->EndToEnd("peak_rss_mib", PeakRssMib(), "MiB");
}

// Traced-window inputs every variant collects the same way.
void CollectTracedWindow(const WindowTotals& traced,
                         const RegistryPoint& before,
                         const RegistryPoint& after, const TimedWal& wal,
                         LayerInputs* layers) {
  layers->traced_service_us = traced.MeanServiceUs();
  layers->tally = traced.tally;
  AddLatchDelta(before, after, layers);
  layers->wal_appends = wal.appends();
  layers->wal_append_us = wal.append_us();
  layers->wal_bytes = wal.bytes();
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

// --- tpcc_inproc ---------------------------------------------------------

// One closed-loop window: each session replays its timed statements from
// `next[s]` until the deadline.
WindowTotals ClosedLoopWindow(
    const std::vector<std::unique_ptr<Session>>& sessions,
    const TpccInputs& in, std::vector<size_t>* next, double seconds,
    SpanRecorder* recorder) {
  std::vector<SessionWindow> per_session(sessions.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, seconds);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions.size(); ++s) {
    threads.emplace_back([&, s] {
      SessionWindow& mine = per_session[s];
      const std::vector<std::string>& stream = in.timed[s];
      size_t& pos = (*next)[s];
      while (pos < stream.size()) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= deadline) break;
        const StatusOr<ExecResult> r =
            ParseAndExecute(sessions[s].get(), stream[pos], recorder);
        const double us = UsBetween(t0, Clock::now());
        ++mine.attempted;
        if (r.ok()) {
          mine.latency_us[SubWindowOf(UsBetween(start, t0) / 1e6, seconds)]
              .push_back(us);
          mine.service_us += us;
          mine.tally.Add(r->stats, !IsSelect(stream[pos]));
        } else {
          ++mine.failed;
          if (mine.first_error.empty()) {
            mine.first_error = r.status().ToString() + " in " + stream[pos];
          }
        }
        ++pos;
      }
      if (pos == stream.size() && mine.first_error.empty()) {
        mine.first_error = "trace exhausted before the deadline";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Merge(per_session, MsBetween(start, Clock::now()) / 1000.0);
}

// --- tpcc_loopback -------------------------------------------------------

// One open-loop window: session s issues its i-th statement at
// start + (s / kLoopbackRate) + i / per_session_rate, sleeping until then;
// latency runs from that intended start, so time spent queued behind a
// slow statement is charged.
WindowTotals OpenLoopWindow(
    const std::vector<std::unique_ptr<autoindex::net::Client>>& clients,
    const TpccInputs& in, std::vector<size_t>* next, double seconds,
    SpanRecorder* recorder) {
  std::vector<SessionWindow> per_session(clients.size());
  const double rate = kLoopbackRate / static_cast<double>(clients.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, seconds);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < clients.size(); ++s) {
    threads.emplace_back([&, s] {
      SessionWindow& mine = per_session[s];
      const std::vector<std::string>& stream = in.timed[s];
      size_t& pos = (*next)[s];
      const double offset = static_cast<double>(s) / kLoopbackRate;
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point intended =
            After(start, offset + static_cast<double>(i) / rate);
        if (intended >= deadline) break;
        if (pos >= stream.size()) {
          mine.first_error = "trace exhausted before the deadline";
          break;
        }
        std::this_thread::sleep_until(intended);
        const Clock::time_point issued = Clock::now();
        StatusOr<autoindex::net::QueryResult> r = [&] {
          ScopedSpan span(recorder, "net.query");
          return clients[s]->Query(stream[pos]);
        }();
        const Clock::time_point done = Clock::now();
        ++mine.attempted;
        mine.lag_us.push_back(UsBetween(intended, issued));
        if (r.ok()) {
          mine.latency_us[SubWindowOf(UsBetween(start, intended) / 1e6,
                                      seconds)]
              .push_back(UsBetween(intended, done));
          mine.service_us += UsBetween(issued, done);
          mine.tally.Add(r->stats, !IsSelect(stream[pos]));
        } else {
          ++mine.failed;
          if (mine.first_error.empty()) {
            mine.first_error = r.status().ToString() + " in " + stream[pos];
          }
        }
        ++pos;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Merge(per_session, MsBetween(start, Clock::now()) / 1000.0);
}

}  // namespace

RunResult RunTpccInproc(const RunOptions& options) {
  RunResult result;
  SpanRecorder recorder;
  SpanRecorder* traced = options.trace ? &recorder : nullptr;
  const TpccInputs in = MakeInputs(
      options.seed, static_cast<size_t>(kMaxSessionRate * options.seconds));
  const std::string wal_path = options.work_dir + "/tpcc_inproc.wal";

  SetupRuns runs;
  std::unique_ptr<TpccSetup> setup = runs.Run(in, wal_path, traced, &result);
  if (!result.correct) return result;
  Database& db = *setup->db;
  result.Note("WAL attached: fsync_each_append=false (the repo default)");
  result.Note("closed loop, " + std::to_string(kSessions) + " sessions");
  result.Note("tuned index set: " + DescribeIndexes(setup->tuned));
  const std::vector<double> build_ms = BuildRounds(setup.get(), traced, &result);
  const double index_mib = IndexMib(db);

  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < kSessions; ++s) sessions.push_back(db.CreateSession());
  WarmUp(
      in,
      [&](int s, const std::string& sql) {
        return ParseAndExecute(sessions[s].get(), sql, nullptr).ok();
      },
      &result);

  std::vector<size_t> next(kSessions, 0);
  LayerInputs layers;
  WindowTotals window;
  if (!options.trace) {
    window = ClosedLoopWindow(sessions, in, &next, options.seconds, nullptr);
  } else {
    // Untraced half, then traced half: the difference is the overhead.
    window = ClosedLoopWindow(sessions, in, &next, options.seconds / 2,
                              nullptr);
    layers.untraced_service_us = window.MeanServiceUs();
    setup->wal->ResetCounters();
    setup->wal->set_recorder(&recorder);
    const RegistryPoint before = RegistryPoint::Take();
    const WindowTotals traced_window = ClosedLoopWindow(
        sessions, in, &next, options.seconds / 2, &recorder);
    const RegistryPoint after = RegistryPoint::Take();
    setup->wal->set_recorder(nullptr);
    CollectTracedWindow(traced_window, before, after, *setup->wal, &layers);
    Accumulate(traced_window, &window);
  }
  RecordOutcome(window, &result);
  sessions.clear();

  FinalChecks(in, setup.get(), next, wal_path, &result);
  if (options.trace) {
    layers.tune = setup->tune;
    layers.build_ms = build_ms;
    EmitPerLayer(recorder, &layers, &result);
  } else {
    setup.reset();
    LaterSetups(in, wal_path, &result, &runs);
    ReportEndToEnd(window, runs, index_mib, build_ms, &result);
  }
  return result;
}

RunResult RunTpccLoopback(const RunOptions& options) {
  RunResult result;
  SpanRecorder recorder;
  SpanRecorder* traced = options.trace ? &recorder : nullptr;
  const size_t per_session = static_cast<size_t>(
      1.1 * kLoopbackRate / kSessions * options.seconds) + 16;
  const TpccInputs in = MakeInputs(options.seed, per_session);
  const std::string wal_path = options.work_dir + "/tpcc_loopback.wal";

  SetupRuns runs;
  std::unique_ptr<TpccSetup> setup = runs.Run(in, wal_path, traced, &result);
  if (!result.correct) return result;
  Database& db = *setup->db;
  result.Note("WAL attached: fsync_each_append=false (the repo default)");
  result.Note("open loop, offered " +
              std::to_string(static_cast<int>(kLoopbackRate)) +
              " statements/s over " + std::to_string(kSessions) +
              " loopback connections");
  const std::vector<double> build_ms = BuildRounds(setup.get(), traced, &result);
  const double index_mib = IndexMib(db);

  autoindex::net::Server server(&db, autoindex::net::ServerConfig());
  const Status started = server.Start();
  if (!started.ok()) {
    result.Fail("server start: " + started.ToString());
    return result;
  }
  std::vector<std::unique_ptr<autoindex::net::Client>> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.push_back(std::make_unique<autoindex::net::Client>());
    const Status c = clients.back()->Connect("127.0.0.1", server.port());
    if (!c.ok()) {
      result.Fail("connect: " + c.ToString());
      return result;
    }
  }
  WarmUp(
      in,
      [&](int s, const std::string& sql) {
        return clients[s]->Query(sql).ok();
      },
      &result);

  std::vector<size_t> next(kSessions, 0);
  LayerInputs layers;
  WindowTotals window;
  const uint64_t busy_before = server.stats().busy_rejections;
  if (!options.trace) {
    window = OpenLoopWindow(clients, in, &next, options.seconds, nullptr);
  } else {
    window = OpenLoopWindow(clients, in, &next, options.seconds / 2, nullptr);
    layers.untraced_service_us = window.MeanServiceUs();
    setup->wal->ResetCounters();
    setup->wal->set_recorder(&recorder);
    const RegistryPoint before = RegistryPoint::Take();
    const WindowTotals traced_window =
        OpenLoopWindow(clients, in, &next, options.seconds / 2, &recorder);
    const RegistryPoint after = RegistryPoint::Take();
    setup->wal->set_recorder(nullptr);
    CollectTracedWindow(traced_window, before, after, *setup->wal, &layers);
    layers.generator_lag_us = traced_window.lag_us;
    layers.net_queries = traced_window.attempted;
    const uint64_t server_n =
        after.HistogramCountDelta(before, "net.statement_us");
    if (server_n > 0) {
      layers.net_server_statement_us =
          static_cast<double>(
              after.HistogramSumDelta(before, "net.statement_us")) /
          static_cast<double>(server_n);
    }
    layers.net_bytes = after.CounterDelta(before, "net.bytes_read") +
                       after.CounterDelta(before, "net.bytes_written");
    Accumulate(traced_window, &window);
  }
  layers.net_busy = server.stats().busy_rejections - busy_before;
  RecordOutcome(window, &result);
  for (std::unique_ptr<autoindex::net::Client>& client : clients) {
    client->Close();
  }
  server.Stop();
  const autoindex::net::ServerStats stats = server.stats();
  if (stats.requests_started != stats.responses_sent) {
    result.Fail("server drain lost responses");
  }

  FinalChecks(in, setup.get(), next, wal_path, &result);
  if (options.trace) {
    layers.tune = setup->tune;
    layers.build_ms = build_ms;
    EmitPerLayer(recorder, &layers, &result);
  } else {
    setup.reset();
    LaterSetups(in, wal_path, &result, &runs);
    ReportEndToEnd(window, runs, index_mib, build_ms, &result);
  }
  return result;
}

}  // namespace wallbench
