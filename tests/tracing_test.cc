// Request-scoped tracing tests (DESIGN.md §13): span-tree shape, the
// flight recorder's keep policy and ring semantics, wraparound
// attribution under 8 concurrent sessions, every TraceValidator check
// driven by a deliberate corruption drill, Chrome trace-event export
// structure, and the end-to-end acceptance path — a statement arriving
// over real loopback TCP while an online index build is in flight must
// yield a trace that decomposes the response time into network /
// admission / latch / operator / WAL spans. The multi-threaded cases
// also run under the TSan stage (ctest -L concurrency).

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "check/trace_validator.h"
#include "check/validator.h"
#include "core/manager.h"
#include "engine/database.h"
#include "engine/session.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/metrics.h"
#include "util/random.h"

namespace autoindex {
namespace {

// Keep-everything policy: threshold 0 makes every submitted trace
// "slow", so tests see deterministic ring contents.
constexpr uint64_t kKeepAll = 0;
constexpr uint64_t kNever = 1ull << 40;

const obs::SpanRecord* FindSpan(const obs::TraceData& trace,
                                const std::string& name) {
  for (const obs::SpanRecord& span : trace.spans) {
    if (name == span.name) return &span;
  }
  return nullptr;
}

// With metrics compiled out (AUTOINDEX_METRICS=OFF) ScopedTrace and
// ScopedSpan record nothing. Then this checks that `snap` holds no trace
// and returns true, so a test stops before its assertions on recorded
// traces.
bool CompiledOut(const obs::Tracer::Snapshot& snap) {
  if constexpr (util::kMetricsEnabled) {
    return false;
  } else {
    EXPECT_TRUE(snap.traces.empty());
    EXPECT_EQ(snap.stats.started, 0u);
    EXPECT_EQ(snap.stats.finished, 0u);
    return true;
  }
}

const obs::TraceData* FindTraceWithSpan(const obs::Tracer::Snapshot& snap,
                                        const std::string& root,
                                        const std::string& span) {
  for (const obs::TraceData& trace : snap.traces) {
    if (trace.spans.empty() || root != trace.spans[0].name) continue;
    if (FindSpan(trace, span) != nullptr) return &trace;
  }
  return nullptr;
}

// A minimal recursive-descent JSON syntax checker — enough to prove the
// Chrome export is structurally valid (balanced, quoted, delimited),
// without pulling a JSON library into the repo.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(Tracing, SpanTreeShape) {
  obs::Tracer tracer(8);
  tracer.Configure(kKeepAll, 0.0);
  {
    obs::ScopedTrace trace("root", &tracer);
    EXPECT_EQ(trace.owns(), util::kMetricsEnabled);
    EXPECT_EQ(trace.trace_id() != 0, util::kMetricsEnabled);
    EXPECT_EQ(obs::CurrentTraceId(), trace.trace_id());
    obs::ScopedSpan a("a");
    a.SetAttr("rows", 7);
    { obs::ScopedSpan b("b"); }
  }
  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  ASSERT_EQ(snap.traces.size(), 1u);
  const obs::TraceData& t = snap.traces[0];
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_STREQ(t.spans[0].name, "root");
  EXPECT_STREQ(t.spans[1].name, "a");
  EXPECT_STREQ(t.spans[2].name, "b");
  EXPECT_EQ(t.spans[0].parent, 0u);
  EXPECT_EQ(t.spans[1].parent, 1u);
  EXPECT_EQ(t.spans[2].parent, 2u);
  EXPECT_EQ(t.total_us, t.spans[0].duration_us);
  EXPECT_STREQ(t.spans[1].attr_name, "rows");
  EXPECT_EQ(t.spans[1].attr_value, 7);

  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.structures_checked(), 1u);
}

TEST(Tracing, NestedTraceIsNoopAndOutermostWins) {
  obs::Tracer tracer(8);
  tracer.Configure(kKeepAll, 0.0);
  {
    obs::ScopedTrace outer("outer", &tracer);
    const uint64_t outer_id = outer.trace_id();
    {
      obs::ScopedTrace inner("inner", &tracer);
      EXPECT_FALSE(inner.owns());
      EXPECT_EQ(obs::CurrentTraceId(), outer_id);
      obs::ScopedSpan span("from-inner-scope");
    }
    // The nested scope must not have torn down the outer trace.
    EXPECT_EQ(obs::CurrentTraceId(), outer_id);
  }
  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  ASSERT_EQ(snap.traces.size(), 1u);
  EXPECT_STREQ(snap.traces[0].spans[0].name, "outer");
  EXPECT_NE(FindSpan(snap.traces[0], "from-inner-scope"), nullptr);
  EXPECT_EQ(snap.stats.started, 1u);
}

TEST(Tracing, CancelDiscardsAndKeepPolicyFilters) {
  obs::Tracer tracer(8);
  tracer.Configure(kKeepAll, 0.0);
  {
    obs::ScopedTrace trace("cancelled", &tracer);
    trace.Cancel();
  }
  // Threshold high + sampling off: submitted but dropped.
  tracer.Configure(kNever, 0.0);
  { obs::ScopedTrace trace("fast", &tracer); }
  // Threshold high + sampling 1.0: kept via the sampling coin.
  tracer.Configure(kNever, 1.0);
  { obs::ScopedTrace trace("sampled", &tracer); }

  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  EXPECT_EQ(snap.stats.started, 3u);
  EXPECT_EQ(snap.stats.cancelled, 1u);
  EXPECT_EQ(snap.stats.finished, 2u);
  EXPECT_EQ(snap.stats.sampled_out, 1u);
  EXPECT_EQ(snap.stats.recorded, 1u);
  ASSERT_EQ(snap.traces.size(), 1u);
  EXPECT_STREQ(snap.traces[0].spans[0].name, "sampled");
  EXPECT_TRUE(snap.traces[0].sampled);

  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(Tracing, SpanCapDropsAndCounts) {
  obs::Tracer tracer(2);
  tracer.Configure(kKeepAll, 0.0);
  constexpr uint32_t kExtra = 10;
  {
    obs::ScopedTrace trace("capped", &tracer);
    for (uint32_t i = 0;
         i < obs::TraceContext::kMaxSpansPerTrace + kExtra; ++i) {
      obs::ScopedSpan span("filler");
    }
  }
  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  ASSERT_EQ(snap.traces.size(), 1u);
  EXPECT_EQ(snap.traces[0].spans.size(),
            size_t{obs::TraceContext::kMaxSpansPerTrace});
  // Root took one slot, so kExtra + 1 filler spans found the trace full.
  EXPECT_EQ(snap.traces[0].spans_dropped, kExtra + 1);
  EXPECT_EQ(snap.stats.spans_dropped, kExtra + 1);

  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// 8 sessions hammer a 4-slot ring. Every recorded trace must keep its
// own spans: the tag stamped on the root must equal the tag stamped on
// the child span of the *same* trace — wraparound overwrites whole
// slots, never splices spans across traces.
TEST(Tracing, RingWraparoundKeepsAttribution) {
  constexpr int kThreads = 8;
  constexpr int kTracesPerThread = 50;
  obs::Tracer tracer(4);
  tracer.Configure(kKeepAll, 0.0);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kTracesPerThread; ++i) {
        const int64_t tag = t * 1000 + i;
        obs::ScopedTrace trace("worker", &tracer);
        trace.SetRootAttr("tag", tag);
        obs::ScopedSpan span("inner");
        span.SetAttr("tag", tag);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  EXPECT_EQ(snap.stats.started, uint64_t{kThreads * kTracesPerThread});
  EXPECT_EQ(snap.stats.recorded, uint64_t{kThreads * kTracesPerThread});
  ASSERT_EQ(snap.traces.size(), 4u);
  for (const obs::TraceData& trace : snap.traces) {
    ASSERT_EQ(trace.spans.size(), 2u);
    ASSERT_STREQ(trace.spans[0].attr_name, "tag");
    ASSERT_STREQ(trace.spans[1].attr_name, "tag");
    EXPECT_EQ(trace.spans[0].attr_value, trace.spans[1].attr_value)
        << "spans from different traces spliced into one ring slot";
  }
  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Snapshots (and the exporter and validator on top of them) race 8
// recording sessions; every intermediate snapshot must already satisfy
// the ring invariants. TSan covers the memory-model side.
TEST(Tracing, SnapshotsRaceRecordingSessions) {
  constexpr int kThreads = 8;
  obs::Tracer tracer(16);
  tracer.Configure(kKeepAll, 0.0);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &stop, t] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        obs::ScopedTrace trace("worker", &tracer);
        trace.SetRootAttr("tag", t * 1000000 + i++);
        obs::ScopedSpan span("inner");
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
    CheckReport report;
    TraceValidator::CheckSnapshot(snap, &report);
    EXPECT_TRUE(report.ok()) << report.ToString();
    const std::string json = obs::TracesToChromeJson(snap);
    EXPECT_TRUE(JsonChecker(json).Valid());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
}

// --- TraceValidator corruption drills ---------------------------------

class TraceValidatorDrill : public ::testing::Test {
 protected:
  TraceValidatorDrill() : tracer_(4) {
    tracer_.Configure(kKeepAll, 0.0);
    for (int i = 0; i < 2; ++i) {
      obs::ScopedTrace trace("drill", &tracer_);
      obs::ScopedSpan span("child");
    }
  }

  // Points *trace at the ring's first drill trace and says whether a drill
  // can corrupt it. With metrics compiled out nothing was recorded, so
  // the ring must be empty and there is no trace to corrupt.
  bool FirstTrace(obs::TraceData** trace) {
    *trace = tracer_.TestOnlyMutableTrace(0);
    if constexpr (!util::kMetricsEnabled) {
      EXPECT_EQ(*trace, nullptr);
      return false;
    }
    EXPECT_NE(*trace, nullptr);
    return *trace != nullptr;
  }

  // Runs the validator and returns the concatenated issue text ("" = ok).
  std::string Issues() {
    CheckReport report;
    TraceValidator::CheckSnapshot(tracer_.TakeSnapshot(), &report);
    std::string all;
    for (const CheckIssue& issue : report.issues()) {
      all += issue.detail + "\n";
    }
    return all;
  }

  obs::Tracer tracer_;
};

TEST_F(TraceValidatorDrill, CleanBaselinePasses) {
  EXPECT_EQ(Issues(), "");
}

TEST_F(TraceValidatorDrill, EmptySpanList) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans.clear();
  EXPECT_NE(Issues().find("no spans"), std::string::npos);
}

TEST_F(TraceValidatorDrill, NonDenseIds) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans[1].id = 5;
  EXPECT_NE(Issues().find("dense"), std::string::npos);
}

TEST_F(TraceValidatorDrill, RootWithParent) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans[0].parent = 1;
  EXPECT_NE(Issues().find("root span has parent"), std::string::npos);
}

TEST_F(TraceValidatorDrill, SecondRoot) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans[1].parent = 0;
  EXPECT_NE(Issues().find("second root"), std::string::npos);
}

TEST_F(TraceValidatorDrill, ParentNotBeforeChild) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans[1].parent = 2;
  EXPECT_NE(Issues().find("parents must start first"), std::string::npos);
}

TEST_F(TraceValidatorDrill, ChildEscapesParentInterval) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans[1].start_us =
      trace->spans[0].start_us + trace->spans[0].duration_us + 1000;
  EXPECT_NE(Issues().find("escapes its parent"), std::string::npos);
}

TEST_F(TraceValidatorDrill, TotalDisagreesWithRoot) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->total_us = trace->spans[0].duration_us + 5;
  EXPECT_NE(Issues().find("root span duration"), std::string::npos);
}

TEST_F(TraceValidatorDrill, DropsWithoutFullTrace) {
  obs::TraceData* trace;
  if (!FirstTrace(&trace)) return;
  trace->spans_dropped = 3;
  EXPECT_NE(Issues().find("drops only happen at the cap"),
            std::string::npos);
}

TEST_F(TraceValidatorDrill, FinishedImbalance) {
  tracer_.TestOnlyCorruptStats(1, 0, 0);
  EXPECT_NE(Issues().find("kept or dropped"), std::string::npos);
}

TEST_F(TraceValidatorDrill, RecordedDisagreesWithOccupancy) {
  tracer_.TestOnlyCorruptStats(0, 1, 0);
  EXPECT_NE(Issues().find("bookkeeping expects"), std::string::npos);
}

TEST_F(TraceValidatorDrill, SampledOutImbalance) {
  tracer_.TestOnlyCorruptStats(0, 0, 1);
  EXPECT_NE(Issues().find("kept or dropped"), std::string::npos);
}

TEST_F(TraceValidatorDrill, StartedBehindFinished) {
  // Inflate finished past started while keeping finished ==
  // recorded + sampled_out, so only the started check can fire.
  tracer_.TestOnlyCorruptStats(5, 0, 5);
  EXPECT_NE(Issues().find("cancelled"), std::string::npos);
}

// --- Engine + database integration ------------------------------------

TEST(Tracing, LocalStatementTracesAndChromeExport) {
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.ResetForTest();
  tracer.Configure(kKeepAll, 0.0);

  Database db;
  CheckOk(db.CreateTable("orders", Schema({{"id", ValueType::kInt},
                                           {"v", ValueType::kInt}}))
              .status());
  Random rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(rng.Uniform(20)))});
  }
  CheckOk(db.BulkInsert("orders", std::move(rows)));
  db.Analyze();
  CheckOk(db.Execute("SELECT * FROM orders WHERE v = 3").status());

  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  const obs::TraceData* select =
      FindTraceWithSpan(snap, "statement", "plan");
  ASSERT_NE(select, nullptr);
  EXPECT_NE(FindSpan(*select, "parse"), nullptr);
  EXPECT_NE(FindSpan(*select, "latch.acquire"), nullptr);
  EXPECT_NE(FindSpan(*select, "engine.execute"), nullptr);
  EXPECT_NE(FindSpan(*select, "SeqScan"), nullptr);

  // The whole ring exports as structurally valid Chrome trace JSON.
  const std::string json = db.DumpTraces();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"autoindex\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_capacity\":"), std::string::npos);

  // And renders as a human-readable tree, newest first.
  const std::string tree = db.RenderTraceTrees(8);
  EXPECT_NE(tree.find("statement"), std::string::npos);
  EXPECT_NE(tree.find("parse"), std::string::npos);

  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  tracer.ResetForTest();
}

// The span names of every trace the ring holds, root first.
std::vector<std::vector<std::string>> TraceShapes(
    const obs::Tracer::Snapshot& snap) {
  std::vector<std::vector<std::string>> out;
  for (const obs::TraceData& trace : snap.traces) {
    std::vector<std::string> names;
    for (const obs::SpanRecord& span : trace.spans) names.push_back(span.name);
    out.push_back(std::move(names));
  }
  return out;
}

// A statement that fails to parse leaves the same trace whichever way it
// enters: the network path's net.request root keeps its failed parse
// span, and so do Database::Execute and Session::Execute, which share
// one statement path.
TEST(Tracing, ParseFailureTracedAlikeOnEveryEntryPoint) {
  obs::Tracer& tracer = obs::Tracer::Default();
  auto reset = [&tracer] {
    tracer.ResetForTest();
    tracer.Configure(kKeepAll, 0.0);
  };
  const std::string bad = "SELEC id FROM orders";
  Database db;
  CheckOk(db.CreateTable("orders", Schema({{"id", ValueType::kInt}}))
              .status());

  reset();
  net::Server server(&db);
  ASSERT_TRUE(server.Start().ok());
  {
    net::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    EXPECT_FALSE(client.Query(bad).ok());
    client.Close();
  }
  server.Stop();
  EXPECT_EQ(FindTraceWithSpan(tracer.TakeSnapshot(), "net.request", "parse") !=
                nullptr,
            util::kMetricsEnabled);

  reset();
  ASSERT_FALSE(db.Execute(bad).ok());
  const auto via_database = TraceShapes(tracer.TakeSnapshot());

  reset();
  std::unique_ptr<Session> session = db.CreateSession();
  ASSERT_FALSE(session->Execute(bad).ok());
  const auto via_session = TraceShapes(tracer.TakeSnapshot());

  std::vector<std::vector<std::string>> expected = {{"statement", "parse"}};
  if constexpr (!util::kMetricsEnabled) expected.clear();  // none recorded
  EXPECT_EQ(via_database, expected);
  EXPECT_EQ(via_session, expected);
  tracer.ResetForTest();
}

TEST(Tracing, TuningRoundProducesPhaseSpans) {
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.ResetForTest();
  tracer.Configure(kKeepAll, 0.0);

  Database db;
  CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                      {"b", ValueType::kInt}}))
              .status());
  std::vector<Row> rows;
  Random rng(11);
  for (int i = 0; i < 2000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(rng.Uniform(50)))});
  }
  CheckOk(db.BulkInsert("t", std::move(rows)));
  db.Analyze();

  AutoIndexConfig config;
  config.mcts.iterations = 30;
  AutoIndexManager manager(&db, config);
  for (int i = 0; i < 40; ++i) {
    CheckOk(manager.ExecuteAndObserve("SELECT a FROM t WHERE b = " +
                                      std::to_string(i % 50))
                .status());
  }
  manager.RunManagementRound();

  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  if (CompiledOut(snap)) return;
  const obs::TraceData* round =
      FindTraceWithSpan(snap, "tuning.round", "tuning.candidate_gen");
  ASSERT_NE(round, nullptr);
  EXPECT_NE(FindSpan(*round, "tuning.search"), nullptr);
  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  tracer.ResetForTest();
}

// The tracer owns its keep policy: building and destroying a manager
// leaves what the operator configured in place.
TEST(Tracing, ManagerLeavesTracerPolicyAlone) {
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Configure(kKeepAll, 1.0);
  {
    Database db;
    AutoIndexManager manager(&db);
    EXPECT_EQ(tracer.slow_threshold_us(), kKeepAll);
  }
  EXPECT_EQ(tracer.slow_threshold_us(), kKeepAll);
  tracer.Configure(obs::Tracer::kDefaultSlowUs,
                   obs::Tracer::kDefaultSampleRate);
}

// --- The acceptance path: remote statement during an online build ------

TEST(Tracing, RemoteStatementDuringBuildDecomposesEndToEnd) {
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.ResetForTest();
  tracer.Configure(kKeepAll, 0.0);

  Database db;
  CheckOk(db.CreateTable("orders", Schema({{"id", ValueType::kInt},
                                           {"v", ValueType::kInt}}))
              .status());
  Random rng(23);
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(rng.Uniform(40)))});
  }
  CheckOk(db.BulkInsert("orders", std::move(rows)));
  db.Analyze();

  // A WAL so the commit path (wal.append under wal.commit) shows up in
  // the write's trace.
  const std::string dir = std::string(::testing::TempDir()) + "/tracing_e2e";
  ::mkdir(dir.c_str(), 0755);
  std::remove(persist::WalPath(dir).c_str());
  StatusOr<std::unique_ptr<persist::Wal>> wal =
      persist::Wal::Create(persist::WalPath(dir), /*data_version=*/1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  db.set_durability_log(wal->get());

  net::Server server(&db);
  ASSERT_TRUE(server.Start().ok());
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Between the build's snapshot scan and its delta catch-up, drive one
  // INSERT and one SELECT through the wire. The hook runs latch-free on
  // the builder thread — which is also inside the index.build trace, so
  // CurrentTraceId() gives us a nonzero client id to propagate.
  std::atomic<int> fired{0};
  uint64_t propagated_client_id = 0;
  uint64_t insert_server_trace = 0;
  db.set_index_build_hook([&](Database::IndexBuildPhase phase) {
    if (phase != Database::IndexBuildPhase::kScanned) return;
    if (fired.fetch_add(1) != 0) return;
    propagated_client_id = obs::CurrentTraceId();
    StatusOr<net::QueryResult> ins =
        client.Query("INSERT INTO orders VALUES (90001, 7)");
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    EXPECT_EQ(ins->server_trace_id != 0, util::kMetricsEnabled);
    EXPECT_EQ(ins->server_span_count > 0, util::kMetricsEnabled);
    insert_server_trace = ins->server_trace_id;
    StatusOr<net::QueryResult> sel =
        client.Query("SELECT * FROM orders WHERE v = 3");
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  });
  ASSERT_TRUE(db.CreateIndex(IndexDef("orders", {"v"})).ok());
  db.set_index_build_hook(nullptr);
  ASSERT_GE(fired.load(), 1);
  client.Close();
  server.Stop();

  const obs::Tracer::Snapshot snap = tracer.TakeSnapshot();
  tracer.ResetForTest();
  db.set_durability_log(nullptr);
  std::remove(persist::WalPath(dir).c_str());
  CheckReport report;
  TraceValidator::CheckSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  if (CompiledOut(snap)) return;

  // The INSERT's server-side trace, found by the propagated identity.
  const obs::TraceData* insert_trace = nullptr;
  for (const obs::TraceData& trace : snap.traces) {
    if (trace.trace_id == insert_server_trace) insert_trace = &trace;
  }
  ASSERT_NE(insert_trace, nullptr);
  ASSERT_FALSE(insert_trace->spans.empty());
  EXPECT_STREQ(insert_trace->spans[0].name, "net.request");
  EXPECT_NE(propagated_client_id, 0u);
  EXPECT_EQ(insert_trace->client_trace_id, propagated_client_id);

  // Decomposition: the root's direct children (net.recv, net.admit,
  // net.execute, net.send) must account for the response time — their
  // durations sum to the root's, minus only inter-span bookkeeping.
  uint64_t child_sum = 0;
  int direct_children = 0;
  for (const obs::SpanRecord& span : insert_trace->spans) {
    if (span.parent == 1) {
      child_sum += span.duration_us;
      ++direct_children;
    }
  }
  EXPECT_EQ(direct_children, 4);
  EXPECT_NE(FindSpan(*insert_trace, "net.recv"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "net.admit"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "net.execute"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "net.send"), nullptr);
  EXPECT_LE(child_sum, insert_trace->total_us);
  EXPECT_LE(insert_trace->total_us - child_sum, 20'000u)
      << "untraced gap too large to call this a decomposition";

  // Inside net.execute: the session/database pipeline, down to the WAL.
  EXPECT_NE(FindSpan(*insert_trace, "parse"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "latch.acquire"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "engine.execute"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "wal.commit"), nullptr);
  EXPECT_NE(FindSpan(*insert_trace, "wal.append"), nullptr);

  // The SELECT that raced the build decomposes down to its operators.
  const obs::TraceData* select_trace =
      FindTraceWithSpan(snap, "net.request", "SeqScan");
  ASSERT_NE(select_trace, nullptr);
  EXPECT_NE(FindSpan(*select_trace, "plan"), nullptr);

  // And the build itself produced a phase-decomposed trace.
  const obs::TraceData* build =
      FindTraceWithSpan(snap, "index.build", "build.scan");
  ASSERT_NE(build, nullptr);
  EXPECT_NE(FindSpan(*build, "build.register"), nullptr);
  EXPECT_NE(FindSpan(*build, "build.catchup"), nullptr);
  EXPECT_NE(FindSpan(*build, "build.publish"), nullptr);
}

// --- Build identity + uptime gauges (DESIGN.md §11) --------------------

TEST(Tracing, BuildInfoAndUptimeExported) {
  Database db;
  const std::string text = db.RenderMetricsText();
  EXPECT_NE(text.find("# TYPE autoindex_build_info gauge"),
            std::string::npos);
  EXPECT_NE(text.find("autoindex_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("git_hash=\""), std::string::npos);
  EXPECT_NE(text.find("sanitizer=\""), std::string::npos);
  // Gauge updates are no-ops with metrics compiled out.
  EXPECT_NE(text.find(util::kMetricsEnabled ? "} 1\n" : "} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("autoindex_uptime_seconds"), std::string::npos);
  // The labels ride only on the sample line — the TYPE line stays bare.
  EXPECT_EQ(text.find("# TYPE autoindex_build_info{"), std::string::npos);
}

}  // namespace
}  // namespace autoindex
