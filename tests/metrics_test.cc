// Observability layer tests (DESIGN.md §11): histogram determinism, shard
// merge equivalence, multi-writer stress (run under TSan by the
// concurrency label), registry semantics, the MetricsValidator's
// corruption drills, and the engine and executor statement counters.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "check/metrics_validator.h"
#include "check/validator.h"
#include "core/manager.h"
#include "persist/file_format.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

using util::HistogramSnapshot;
using util::LatencyHistogram;
using util::MetricsRegistry;

// Runs just the MetricsValidator (empty context — it only reads the
// process-wide registry).
void RunMetricsValidator(CheckReport* report) {
  MetricsValidator validator;
  CheckContext ctx;
  validator.Validate(ctx, report);
}

// --- bucket scheme ------------------------------------------------------

TEST(Histogram, BucketScheme) {
  // Bucket b holds values with bit_width b: 0 -> bucket 0, [2^(b-1), 2^b)
  // -> bucket b.
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketFor(255), 8u);
  EXPECT_EQ(LatencyHistogram::BucketFor(256), 9u);
  EXPECT_EQ(LatencyHistogram::BucketFor(511), 9u);
  EXPECT_EQ(LatencyHistogram::BucketFor(512), 10u);

  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(9), 511u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(10), 1023u);
  EXPECT_EQ(
      HistogramSnapshot::BucketUpperBound(HistogramSnapshot::kNumBuckets - 1),
      UINT64_MAX);
}

TEST(Histogram, DeterministicPercentiles) {
  LatencyHistogram hist;
  for (uint64_t us = 1; us <= 1000; ++us) hist.Record(us);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.BucketSum(), snap.count);
  if constexpr (!util::kMetricsEnabled) {
    EXPECT_EQ(snap.count, 0u);  // Record is compiled out
    return;
  }
  ASSERT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum_us, 500500u);
  EXPECT_EQ(snap.max_us, 1000u);
  // Rank 500 lands in bucket [256, 511] -> upper bound 511.
  EXPECT_EQ(snap.P50Us(), 511u);
  // Ranks 900/990 land in bucket [512, 1023]; the reported value is
  // clamped to the observed max.
  EXPECT_EQ(snap.P90Us(), 1000u);
  EXPECT_EQ(snap.P99Us(), 1000u);
  EXPECT_DOUBLE_EQ(snap.MeanUs(), 500.5);
}

TEST(Histogram, EmptySnapshotIsZero) {
  LatencyHistogram hist;
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.P50Us(), 0u);
  EXPECT_EQ(snap.P99Us(), 0u);
  EXPECT_DOUBLE_EQ(snap.MeanUs(), 0.0);
}

TEST(Histogram, ShardMergeEquivalence) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  // The same multiset recorded from 8 threads (spread across shards) and
  // from one thread must produce identical snapshots.
  LatencyHistogram sharded;
  LatencyHistogram single;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sharded, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        sharded.Record(static_cast<uint64_t>(t) * 1000 + i % 997);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      single.Record(static_cast<uint64_t>(t) * 1000 + i % 997);
    }
  }
  const HistogramSnapshot a = sharded.Snapshot();
  const HistogramSnapshot b = single.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_us, b.sum_us);
  EXPECT_EQ(a.max_us, b.max_us);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, MultiWriterStressKeepsInvariants) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  // TSan target (tier1;concurrency): concurrent writers + a racing
  // snapshotter. The one-sided invariant bucket_sum >= count must hold in
  // every mid-race snapshot; totals must be exact once quiescent.
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_acquire)) {
      const HistogramSnapshot snap = hist.Snapshot();
      ASSERT_GE(snap.BucketSum(), snap.count);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist] {
      for (uint64_t i = 0; i < kPerThread; ++i) hist.Record(i % 4096);
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.BucketSum(), snap.count);
  EXPECT_EQ(snap.max_us, 4095u);
}

TEST(Histogram, MergeAddsSnapshots) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  a.Record(100);
  b.Record(1000);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  if constexpr (!util::kMetricsEnabled) {
    EXPECT_EQ(merged.count, 0u);  // Record is compiled out
    EXPECT_EQ(merged.BucketSum(), 0u);
    return;
  }
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum_us, 1110u);
  EXPECT_EQ(merged.max_us, 1000u);
  EXPECT_EQ(merged.BucketSum(), 3u);
}

// --- registry -----------------------------------------------------------

TEST(Registry, StablePointersAndPrefixSnapshots) {
  auto& registry = MetricsRegistry::Default();
  registry.ResetForTest();
  util::Counter* c1 = registry.GetCounter("testreg.alpha");
  util::Counter* c2 = registry.GetCounter("testreg.alpha");
  EXPECT_EQ(c1, c2);  // stable for the process lifetime
  registry.GetGauge("testreg.depth")->Set(42);
  registry.GetHistogram("testreg.lat_us")->Record(100);
  c1->Add(7);

  const auto all = registry.Snapshot("testreg.");
  ASSERT_EQ(all.size(), 3u);  // sorted: alpha, depth, lat_us
  EXPECT_EQ(all[0].name, "testreg.alpha");
  EXPECT_EQ(all[0].kind, MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(all[0].counter, util::kMetricsEnabled ? 7u : 0u);
  EXPECT_EQ(all[1].name, "testreg.depth");
  EXPECT_EQ(all[1].gauge, util::kMetricsEnabled ? 42 : 0);
  EXPECT_EQ(all[2].name, "testreg.lat_us");
  EXPECT_EQ(all[2].hist.count, util::kMetricsEnabled ? 1u : 0u);

  // ResetForTest zeroes values but keeps registrations (and pointers).
  registry.ResetForTest();
  EXPECT_EQ(c1->value(), 0u);
  EXPECT_EQ(registry.GetCounter("testreg.alpha"), c1);
}

TEST(Registry, KindCollisionYieldsDummyAndIsCounted) {
  auto& registry = MetricsRegistry::Default();
  registry.ResetForTest();
  util::Counter* counter = registry.GetCounter("testreg.collide");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(registry.type_collisions(), 0u);
  // Same name, wrong kind: caller gets a usable dummy, the registry
  // counts the bug, and the validator turns it into a check failure.
  util::Gauge* dummy = registry.GetGauge("testreg.collide");
  ASSERT_NE(dummy, nullptr);
  dummy->Set(5);  // must not crash
  EXPECT_EQ(registry.type_collisions(), 1u);

  CheckReport report;
  RunMetricsValidator(&report);
  EXPECT_FALSE(report.ok());

  registry.ResetForTest();  // clears the collision for later tests
  EXPECT_EQ(registry.type_collisions(), 0u);
}

TEST(Registry, RenderTextPrometheusFormat) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  auto& registry = MetricsRegistry::Default();
  registry.ResetForTest();
  registry.GetCounter("testreg.render.events")->Add(3);
  registry.GetGauge("testreg.render.depth")->Set(-2);
  auto* hist = registry.GetHistogram("testreg.render.lat_us");
  hist->Record(5);
  hist->Record(300);

  const std::string text = registry.RenderText("testreg.render.");
  EXPECT_NE(text.find("# TYPE autoindex_testreg_render_events counter"),
            std::string::npos);
  EXPECT_NE(text.find("autoindex_testreg_render_events 3"),
            std::string::npos);
  EXPECT_NE(text.find("autoindex_testreg_render_depth -2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE autoindex_testreg_render_lat_us histogram"),
            std::string::npos);
  // Buckets render cumulative: value 5 -> le="7"; 300 joins at le="511".
  EXPECT_NE(text.find("autoindex_testreg_render_lat_us_bucket{le=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("autoindex_testreg_render_lat_us_bucket{le=\"511\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("autoindex_testreg_render_lat_us_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("autoindex_testreg_render_lat_us_sum 305"),
            std::string::npos);
  registry.ResetForTest();
}

// --- validator ----------------------------------------------------------

TEST(MetricsValidator, PassesOnHealthyRegistry) {
  auto& registry = MetricsRegistry::Default();
  registry.ResetForTest();
  registry.GetCounter("testval.ok")->Add(3);
  registry.GetHistogram("testval.lat_us")->Record(50);
  CheckReport report;
  RunMetricsValidator(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.structures_checked(), 0u);
  registry.ResetForTest();
}

TEST(MetricsValidator, FlagsCorruptHistogramCount) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  auto& registry = MetricsRegistry::Default();
  registry.ResetForTest();
  auto* hist = registry.GetHistogram("testval.corrupt_us");
  hist->Record(10);
  // Corruption drill: inflate the count without touching buckets, which
  // breaks bucket_sum >= count.
  hist->TestOnlyCorruptCount(5);
  CheckReport report;
  RunMetricsValidator(&report);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const CheckIssue& issue : report.issues()) {
    if (issue.detail.find("testval.corrupt_us") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
  registry.ResetForTest();  // heals: zeroed count == zeroed buckets
  CheckReport clean;
  RunMetricsValidator(&clean);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST(MetricsValidator, SilentWhileFirstRecordIsInFlight) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  // A fresh histogram's first Record races validator passes. No snapshot
  // may show the sample half made (count 0 with sum_us or max_us set, or
  // the reverse).
  auto& registry = MetricsRegistry::Default();
  registry.ResetForTest();
  auto* hist = registry.GetHistogram("testval.race_us");
  int reports = 0;
  std::string first_report;
  for (int race = 0; race < 3000; ++race) {
    hist->Reset();
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::thread writer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      hist->Record(100);
      done.store(true, std::memory_order_release);
    });
    go.store(true, std::memory_order_release);
    do {
      CheckReport report;
      RunMetricsValidator(&report);
      if (!report.ok() && reports++ == 0) first_report = report.ToString();
    } while (!done.load(std::memory_order_acquire));
    writer.join();
  }
  EXPECT_EQ(reports, 0) << first_report;
  registry.ResetForTest();
}

MetricsRegistry::MetricValue CounterValue(const std::string& name,
                                          uint64_t v) {
  MetricsRegistry::MetricValue m;
  m.name = name;
  m.kind = MetricsRegistry::Kind::kCounter;
  m.counter = v;
  return m;
}

TEST(MetricsValidator, MonotonePairCatchesBackwardCounters) {
  std::vector<MetricsRegistry::MetricValue> before = {
      CounterValue("a.events", 10), CounterValue("b.events", 3)};
  std::vector<MetricsRegistry::MetricValue> after = {
      CounterValue("a.events", 12), CounterValue("b.events", 3),
      CounterValue("c.new", 1)};  // c.new registered between snapshots: fine
  CheckReport ok_report;
  MetricsValidator::CheckMonotonePair(before, after, &ok_report);
  EXPECT_TRUE(ok_report.ok()) << ok_report.ToString();
  EXPECT_EQ(ok_report.structures_checked(), 2u);

  after[0].counter = 9;  // went backwards
  CheckReport bad_report;
  MetricsValidator::CheckMonotonePair(before, after, &bad_report);
  ASSERT_FALSE(bad_report.ok());
  EXPECT_NE(bad_report.issues()[0].detail.find("a.events"),
            std::string::npos);
}

TEST(MetricsValidator, MonotonePairCatchesShrinkingHistogram) {
  MetricsRegistry::MetricValue h;
  h.name = "lat_us";
  h.kind = MetricsRegistry::Kind::kHistogram;
  h.hist.count = 10;
  h.hist.sum_us = 1000;
  h.hist.max_us = 500;
  MetricsRegistry::MetricValue shrunk = h;
  shrunk.hist.count = 9;
  CheckReport report;
  MetricsValidator::CheckMonotonePair({h}, {shrunk}, &report);
  EXPECT_FALSE(report.ok());
}

// --- end-to-end: mixed workload populates every hot-path series ---------

uint64_t CounterOf(const std::vector<MetricsRegistry::MetricValue>& snap,
                   const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

uint64_t HistCountOf(const std::vector<MetricsRegistry::MetricValue>& snap,
                     const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return m.hist.count;
  }
  return 0;
}

TEST(MetricsEndToEnd, MixedWorkloadPopulatesSubsystemSeries) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  MetricsRegistry::Default().ResetForTest();

  const std::string dir = std::string(::testing::TempDir()) + "/metrics_e2e";
  ::mkdir(dir.c_str(), 0755);
  std::remove(persist::WalPath(dir).c_str());

  Database db;
  ASSERT_TRUE(
      db.CreateTable("orders", Schema({{"id", ValueType::kInt},
                                       {"customer", ValueType::kInt},
                                       {"amount", ValueType::kInt}}))
          .ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Execute(StrFormat("INSERT INTO orders VALUES (%d, %d, %d)",
                                     i, i % 40, i * 3))
                    .ok());
  }
  db.Analyze();

  // Attach a WAL (fsync on append so both wal series move).
  StatusOr<uint64_t> saved = persist::SaveSnapshot(&db, nullptr, dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  persist::WalOptions wal_options;
  wal_options.fsync_each_append = true;
  StatusOr<std::unique_ptr<persist::Wal>> wal =
      persist::Wal::Create(persist::WalPath(dir), *saved, wal_options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  db.set_durability_log(wal->get());

  AutoIndexConfig config;
  config.learn_cost_model = false;
  AutoIndexManager manager(&db, config);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(manager
                    .ExecuteAndObserve(StrFormat(
                        "SELECT amount FROM orders WHERE customer = %d",
                        i % 40))
                    .ok());
    ASSERT_TRUE(
        manager
            .ExecuteAndObserve(StrFormat(
                "INSERT INTO orders VALUES (%d, %d, %d)", 1000 + i, i, i))
            .ok());
  }
  manager.RunManagementRound(/*apply=*/false);

  // Online index build phases.
  IndexDef def;
  def.table = "orders";
  def.columns = {"customer"};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Execute("SELECT amount FROM orders WHERE customer = 7").ok());
  }
  db.set_durability_log(nullptr);

  const auto snap = db.MetricsSnapshot();
  EXPECT_GT(CounterOf(snap, "engine.statements"), 0u);
  EXPECT_GT(HistCountOf(snap, "engine.statement_us"), 0u);
  EXPECT_GT(CounterOf(snap, "executor.statements"), 0u);
  EXPECT_GT(CounterOf(snap, "executor.rows_returned"), 0u);
  EXPECT_GT(CounterOf(snap, "latch.acquisitions"), 0u);
  EXPECT_GT(HistCountOf(snap, "latch.hold_us"), 0u);
  EXPECT_GT(CounterOf(snap, "wal.appends"), 0u);
  EXPECT_GT(CounterOf(snap, "wal.fsyncs"), 0u);
  EXPECT_GT(CounterOf(snap, "wal.append_bytes"), 0u);
  EXPECT_EQ(CounterOf(snap, "index.builds"), 1u);
  EXPECT_EQ(HistCountOf(snap, "index.build.total_us"), 1u);
  EXPECT_EQ(HistCountOf(snap, "index.build.scan_us"), 1u);
  EXPECT_GT(CounterOf(snap, "estimator.cache.misses"), 0u);
  EXPECT_EQ(CounterOf(snap, "tuning.rounds"), 1u);
  EXPECT_GT(CounterOf(snap, "tuning.observations"), 0u);
  EXPECT_GT(CounterOf(snap, "mcts.runs"), 0u);

  // The statement-level executor counters cover the scans the SELECTs ran.
  EXPECT_GT(CounterOf(snap, "executor.tuples_examined"), 0u);
  EXPECT_GT(CounterOf(snap, "executor.heap_pages_read"), 0u);

  // Full structural check (includes the MetricsValidator) stays green.
  const CheckReport report = CheckAll(db);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Prefix-filtered render for the shell's `\metrics wal.` path.
  const std::string wal_text = db.RenderMetricsText("wal.");
  EXPECT_NE(wal_text.find("autoindex_wal_appends"), std::string::npos);
  EXPECT_EQ(wal_text.find("autoindex_engine"), std::string::npos);

  MetricsRegistry::Default().ResetForTest();
}

TEST(MetricsEndToEnd, ExecutorCountsEveryStatementTheEngineRan) {
  if constexpr (!util::kMetricsEnabled) GTEST_SKIP();
  MetricsRegistry::Default().ResetForTest();

  Database db;
  ASSERT_TRUE(
      db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                  {"b", ValueType::kInt}}))
          .ok());
  // Every statement kind, plus one that fails in the executor.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db.Execute(StrFormat("INSERT INTO t VALUES (%d, %d)", i, i % 4))
            .ok());
  }
  ASSERT_TRUE(db.Execute("SELECT a FROM t WHERE b = 1").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET b = 9 WHERE a = 3").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = 4").ok());
  ASSERT_FALSE(db.Execute("INSERT INTO missing VALUES (1, 2)").ok());

  const auto snap = db.MetricsSnapshot();
  const uint64_t engine_statements = CounterOf(snap, "engine.statements");
  const uint64_t engine_failures =
      CounterOf(snap, "engine.statement_failures");
  EXPECT_EQ(engine_statements, 24u);
  EXPECT_EQ(engine_failures, 1u);
  EXPECT_EQ(CounterOf(snap, "executor.statements"),
            engine_statements - engine_failures);
  // 20 inserted + 5 selected (b = 1) + 1 updated + 1 deleted.
  EXPECT_EQ(CounterOf(snap, "executor.rows_returned"), 27u);

  MetricsRegistry::Default().ResetForTest();
}

}  // namespace
}  // namespace autoindex
