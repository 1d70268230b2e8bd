// Concurrency layer: LatchManager semantics, the CheckLatches audit,
// session isolation, a readers+writers+tuning stress run and TPC-C and
// banking replays from several sessions under a live tuner (the tests the
// TSan stage of scripts/check.sh gates on), regression tests for
// single-thread bugs (LIMIT draining its child, the stale
// benefit-estimator cost memo, SUM/AVG over strings), and TSan-gated
// regressions for the lock-discipline violations the thread-safety
// annotation sweep surfaced (unguarded estimator model, MCTS budget knob,
// durability-log pointer).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "check/validator.h"
#include "core/benefit_estimator.h"
#include "core/manager.h"
#include "core/mcts.h"
#include "engine/database.h"
#include "engine/durability.h"
#include "engine/session.h"
#include "storage/latch_manager.h"
#include "workload/banking.h"
#include "workload/tpcc.h"

namespace autoindex {
namespace {

using LatchMode = LatchManager::LatchMode;

// --- LatchManager semantics ---------------------------------------------

TEST(LatchManagerTest, SharedLatchesAdmitConcurrentReaders) {
  LatchManager latches;
  LatchManager::Guard main_guard = latches.AcquireShared({"t"});
  std::atomic<bool> acquired{false};
  std::thread reader([&] {
    LatchManager::Guard g = latches.AcquireShared({"t"});
    acquired.store(true);
  });
  reader.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(latches.total_acquisitions(), 2u);
}

TEST(LatchManagerTest, ExclusiveLatchBlocksReadersUntilRelease) {
  LatchManager latches;
  LatchManager::Guard writer = latches.AcquireExclusive("t");
  std::atomic<bool> acquired{false};
  std::thread reader([&] {
    LatchManager::Guard g = latches.AcquireShared({"t"});
    acquired.store(true);
  });
  // The reader must park behind the writer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  writer.Release();
  reader.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LatchManagerTest, WaitingWriterBlocksNewReaders) {
  LatchManager latches;
  LatchManager::Guard reader = latches.AcquireShared({"t"});
  std::atomic<bool> writer_in{false};
  std::atomic<bool> late_reader_in{false};
  std::thread writer([&] {
    LatchManager::Guard g = latches.AcquireExclusive("t");
    writer_in.store(true);
    g.Release();
  });
  // Wait until the writer is parked (waiting_writers visible in the
  // snapshot), then start a reader that must queue behind it.
  for (int i = 0; i < 1000; ++i) {
    const auto snap = latches.Snapshot();
    if (!snap.latches.empty() && snap.latches[0].waiting_writers > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread late_reader([&] {
    LatchManager::Guard g = latches.AcquireShared({"t"});
    late_reader_in.store(true);
    // Writer preference: by the time a new reader gets in, the waiting
    // writer must have had its turn.
    EXPECT_TRUE(writer_in.load());
  });
  EXPECT_FALSE(late_reader_in.load());
  reader.Release();
  writer.join();
  late_reader.join();
  EXPECT_TRUE(late_reader_in.load());
}

TEST(LatchManagerTest, WaitingReaderGoesBeforeTheNextWriter) {
  // A reader queued behind a writer gets its turn when that writer
  // releases, even though another writer is queued too: a steady writer
  // stream must not starve readers (e.g. an online build's scan chunks).
  LatchManager latches;
  LatchManager::Guard holder = latches.AcquireExclusive("t");
  std::atomic<bool> reader_in{false};
  std::atomic<bool> writer_in{false};
  auto wait_for = [&](auto parked) {
    for (int i = 0; i < 5000; ++i) {
      const auto snap = latches.Snapshot();
      if (!snap.latches.empty() && parked(snap.latches[0])) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread reader([&] {
    LatchManager::Guard g = latches.AcquireShared({"t"});
    reader_in.store(true);
    EXPECT_FALSE(writer_in.load());
  });
  wait_for([](const auto& s) { return s.waiting_readers > 0; });
  std::thread writer([&] {
    LatchManager::Guard g = latches.AcquireExclusive("t");
    writer_in.store(true);
    EXPECT_TRUE(reader_in.load());
  });
  wait_for([](const auto& s) { return s.waiting_writers > 0; });
  EXPECT_FALSE(reader_in.load());
  holder.Release();
  reader.join();
  writer.join();
  EXPECT_TRUE(reader_in.load());
  EXPECT_TRUE(writer_in.load());
  EXPECT_TRUE(latches.Snapshot().latches.empty());
}

TEST(LatchManagerTest, NestedReacquisitionIsANoop) {
  LatchManager latches;
  LatchManager::Guard outer = latches.AcquireShared({"t"});
  EXPECT_EQ(outer.num_held(), 1u);
  // Same thread, same table: recorded no-op (the lazy-stats-under-latch
  // path), so releasing the inner guard must not drop the outer hold.
  LatchManager::Guard inner = latches.AcquireShared({"t"});
  EXPECT_EQ(inner.num_held(), 0u);
  inner.Release();
  const auto snap = latches.Snapshot();
  ASSERT_EQ(snap.latches.size(), 1u);
  EXPECT_EQ(snap.latches[0].readers, 1);
}

TEST(LatchManagerTest, MultiAcquireSortsAndCoalesces) {
  LatchManager latches;
  LatchManager::Guard g = latches.Acquire({{"zeta", LatchMode::kShared},
                                           {"Alpha", LatchMode::kShared},
                                           {"mid", LatchMode::kExclusive},
                                           {"alpha", LatchMode::kExclusive}});
  // "Alpha"+"alpha" coalesce (case-insensitive) to one exclusive hold.
  EXPECT_EQ(g.num_held(), 3u);
  const auto snap = latches.Snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  const auto& held = snap.threads[0].held;
  ASSERT_EQ(held.size(), 3u);
  EXPECT_EQ(held[0].first, "alpha");
  EXPECT_EQ(held[0].second, LatchMode::kExclusive);
  EXPECT_EQ(held[1].first, "mid");
  EXPECT_EQ(held[2].first, "zeta");
  g.Release();
  EXPECT_TRUE(latches.Snapshot().latches.empty());
}

// --- CheckLatches --------------------------------------------------------

CheckReport RunLatchCheck(const LatchManager& latches) {
  CheckReport report;
  CheckLatches(latches, &report);
  return report;
}

TEST(LatchValidatorTest, CleanStateAndHeldLatchesPass) {
  LatchManager latches;
  EXPECT_TRUE(RunLatchCheck(latches).ok());
  LatchManager::Guard g =
      latches.Acquire({{"a", LatchMode::kShared}, {"b", LatchMode::kExclusive}});
  const CheckReport held = RunLatchCheck(latches);
  EXPECT_TRUE(held.ok()) << held.ToString();
  EXPECT_GT(held.structures_checked(), 0u);
}

TEST(LatchValidatorTest, PhantomReaderIsCaught) {
  LatchManager latches;
  // A reader count with no thread recording the hold — exactly the leak
  // shape a missed Guard::Release would produce.
  latches.TestOnlyAddPhantomReader("t");
  const CheckReport report = RunLatchCheck(latches);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("leak or double-release"),
            std::string::npos)
      << report.ToString();
}

// --- Sessions ------------------------------------------------------------

class ConcurrencyDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"s", ValueType::kString}})));
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 10)),
                      Value("s" + std::to_string(i % 7))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
    db_.Analyze();
  }

  Database db_;
};

TEST_F(ConcurrencyDbTest, SessionsKeepPrivatePlans) {
  std::unique_ptr<Session> s1 = db_.CreateSession();
  std::unique_ptr<Session> s2 = db_.CreateSession();
  ASSERT_TRUE(s1->Execute("SELECT a FROM t WHERE b = 3").ok());
  ASSERT_TRUE(s1->Execute("SELECT a FROM t WHERE b = 4").ok());
  ASSERT_TRUE(s2->Execute("SELECT a FROM t WHERE a = 1").ok());
  // Each session retains its own last plan (private executor).
  ASSERT_NE(s1->executor().last_plan(), nullptr);
  ASSERT_NE(s2->executor().last_plan(), nullptr);
}

TEST_F(ConcurrencyDbTest, WritesBumpDataVersion) {
  const uint64_t before = db_.data_version();
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (5000, 1, 'x')").ok());
  EXPECT_GT(db_.data_version(), before);
  const uint64_t after_insert = db_.data_version();
  // Reads leave the version alone.
  ASSERT_TRUE(db_.Execute("SELECT a FROM t WHERE a = 5000").ok());
  EXPECT_EQ(db_.data_version(), after_insert);
}

// --- Stress: N writers + M readers + a tuning thread ---------------------

// Runs one statement; a failure is counted and reported with its SQL and
// status, so a rare failure under load can be diagnosed from the log.
void RunOrRecord(Session* session, const std::string& sql,
                 std::atomic<size_t>* failures) {
  StatusOr<ExecResult> result = session->Execute(sql);
  if (result.ok()) return;
  failures->fetch_add(1);
  ADD_FAILURE() << sql << ": " << result.status().ToString();
}

TEST_F(ConcurrencyDbTest, ReadersWritersAndTunerRaceCleanly) {
  // Debug checks on: every write statement triggers a full CheckAll
  // (including CheckLatches) from the writing thread, which also
  // exercises the all-table shared re-latch under contention.
  InstallDebugChecks(&db_);
  AutoIndexManager manager(&db_);

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kOpsPerThread = 60;
  std::atomic<size_t> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([this, w, &failures] {
      std::unique_ptr<Session> session = db_.CreateSession();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int id = 10000 + w * kOpsPerThread + i;
        std::string sql;
        switch (i % 3) {
          case 0:
            sql = "INSERT INTO t VALUES (" + std::to_string(id) + ", " +
                  std::to_string(i % 10) + ", 'w')";
            break;
          case 1:
            sql = "UPDATE t SET b = " + std::to_string(i % 5) +
                  " WHERE a = " + std::to_string(id - 1);
            break;
          default:
            sql = "DELETE FROM t WHERE a = " + std::to_string(id - 2);
            break;
        }
        RunOrRecord(session.get(), sql, &failures);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([this, r, &failures] {
      std::unique_ptr<Session> session = db_.CreateSession();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string sql =
            i % 2 == 0
                ? "SELECT a, s FROM t WHERE b = " + std::to_string(i % 10)
                : "SELECT b, COUNT(a), AVG(a) FROM t WHERE a > " +
                      std::to_string(r * 100) + " GROUP BY b";
        RunOrRecord(session.get(), sql, &failures);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread tuner([this, &manager, &stop] {
    while (!stop.load()) {
      manager.ObserveOnly("SELECT a, s FROM t WHERE b = 3");
      manager.ObserveOnly("SELECT a FROM t WHERE a = 42");
      manager.RunManagementRound();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : threads) t.join();
  stop.store(true);
  tuner.join();

  EXPECT_EQ(failures.load(), 0u);
  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Every latch was released: the stress must leave no residue.
  EXPECT_TRUE(db_.latches().Snapshot().latches.empty());
  InstallDebugChecks(&db_, /*install=*/false);
}

// --- End to end: workload sessions + an applying tuner -------------------

// `clients` sessions replay interleaved shares of `trace` on `db` while a
// tuner thread observes the same trace and applies management rounds, so
// index builds and drops run online under live client threads. Then no
// statement may have failed, the tuner must have changed the index set,
// and the database must check clean with no latch left held.
void ReplayUnderApplyingTuner(Database* db,
                              const std::vector<std::string>& trace,
                              size_t clients) {
  AutoIndexConfig config;
  config.mcts.iterations = 200;
  AutoIndexManager manager(db, config);

  constexpr size_t kObservationsPerRound = 100;
  constexpr int kMaxRounds = 4;
  std::atomic<size_t> failures{0};
  std::atomic<bool> clients_done{false};

  int rounds = 0;
  size_t index_changes = 0;
  std::thread tuner([&] {
    size_t next = 0;
    do {
      for (size_t i = 0; i < kObservationsPerRound; ++i) {
        manager.ObserveOnly(trace[next++ % trace.size()]);
      }
      const TuningResult result = manager.RunManagementRound(/*apply=*/true);
      index_changes += result.added.size() + result.removed.size();
      ++rounds;
    } while (!clients_done.load() && rounds < kMaxRounds);
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([db, &trace, &failures, clients, c] {
      std::unique_ptr<Session> session = db->CreateSession();
      for (size_t i = c; i < trace.size(); i += clients) {
        RunOrRecord(session.get(), trace[i], &failures);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  clients_done.store(true);
  tuner.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(rounds, 1);
  EXPECT_GT(index_changes, 0u);  // the tuner did build or drop indexes
  const CheckReport report = CheckAll(*db);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(db->latches().Snapshot().latches.empty());
}

// TPC-C: point reads, joins, updates and inserts across the ten tables,
// from two sessions.
TEST(TpccReplayTest, TpccSessionsAndTunerRaceCleanly) {
  Database db;
  const TpccConfig tpcc;
  TpccWorkload::Populate(&db, tpcc);
  db.Analyze();
  ReplayUnderApplyingTuner(
      &db, TpccWorkload::Generate(tpcc, 600, /*seed=*/7), /*clients=*/2);
}

// The banking hybrid (OLTP withdrawals plus OLAP summaries) over a schema
// carrying a redundant manual index estate the tuner can drop, from four
// sessions.
TEST(BankingReplayTest, HybridSessionsAndTunerRaceCleanly) {
  Database db;
  BankingConfig banking;
  banking.num_tables = 24;
  banking.manual_indexes = 40;
  BankingWorkload::Populate(&db, banking);
  BankingWorkload::CreateManualIndexes(&db, banking);
  db.Analyze();
  ReplayUnderApplyingTuner(
      &db, BankingWorkload::HybridService(banking, 400, /*seed=*/11),
      /*clients=*/4);
}

// --- Regression: LIMIT stops pulling its child ---------------------------

TEST_F(ConcurrencyDbTest, LimitShortCircuitsUpstreamScan) {
  auto r = db_.Execute("SELECT a FROM t LIMIT 5");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->stats.rows_returned, 5u);
  // Before the fix LimitOp drained its child dry: the scan below it
  // emitted all 1000 rows. With genuine early termination the scan is
  // pulled exactly `limit` times, and it streams, so it examines only the
  // rows it emits and reads only the first page.
  ASSERT_NE(r->plan, nullptr);
  const PlanNodeSnapshot* node = r->plan.get();  // Project -> Limit -> Scan
  while (!node->children.empty()) node = &node->children[0];
  EXPECT_EQ(node->actual.rows_out, 5);
  EXPECT_EQ(node->actual.tuples_examined, 5);
  EXPECT_EQ(node->actual.heap_pages_read, 1);
  EXPECT_EQ(r->stats.tuples_examined, 5u);
}

// --- Regression: estimator cost memo invalidates on data change ----------

TEST_F(ConcurrencyDbTest, EstimatorCacheInvalidatesOnDataChange) {
  AutoIndexManager manager(&db_);
  for (int i = 0; i < 4; ++i) {
    manager.ObserveOnly("SELECT a FROM t WHERE b = 3");
  }
  const WorkloadModel model = manager.CurrentWorkload();
  ASSERT_FALSE(model.entries.empty());
  const IndexConfig config;
  const double before = manager.estimator().EstimateWorkloadCost(model, config);
  EXPECT_GT(manager.estimator().cache_size(), 0u);

  // Grow the table 5x and refresh stats: the memoized cost is stale now.
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value(int64_t(20000 + i)), Value(int64_t(i % 10)),
                    Value("g")});
  }
  ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
  db_.Analyze();

  const double after = manager.estimator().EstimateWorkloadCost(model, config);
  // The epoch guard must recompute against the larger table — a stale
  // memo would return `before` verbatim.
  EXPECT_GT(after, before);
}

// --- Regression: the learned model is guarded (obs_mu_) -------------------

// Before the annotation sweep, TrainModel wrote model_ while concurrent
// EstimateStatementCost / model_trained() calls read it with no lock — a
// data race TSan flags on the SigmoidRegression weights vector. The model
// now lives under obs_mu_ (trained on a copy, swapped in under the lock).
TEST_F(ConcurrencyDbTest, EstimatorModelTrainRacesWithEstimates) {
  IndexBenefitEstimator estimator(&db_);
  StatusOr<Statement> stmt = ParseSql("SELECT a FROM t WHERE b = 3");
  ASSERT_TRUE(stmt.ok());
  const std::vector<double> features =
      db_.WhatIfCost(*stmt, IndexConfig()).Features();

  std::atomic<bool> stop{false};
  std::thread trainer([&] {
    int round = 0;
    while (!stop.load()) {
      for (int i = 0; i < 8; ++i) {
        estimator.AddObservation(features, 50.0 + (round + i) % 17);
      }
      estimator.TrainModel(/*min_observations=*/8);
      ++round;
    }
  });
  bool saw_trained = false;
  for (int i = 0; i < 300; ++i) {
    const double cost = estimator.EstimateStatementCost(*stmt, IndexConfig());
    EXPECT_TRUE(std::isfinite(cost));
    saw_trained |= estimator.model_trained();
  }
  stop.store(true);
  trainer.join();
  // The trainer ran at least once by the end (8 observations per round).
  EXPECT_TRUE(estimator.model_trained() || !saw_trained);
}

// --- Regression: the MCTS budget knob is guarded (tree_mu_) ---------------

// set_storage_budget used to write config_.storage_budget_bytes with no
// lock while Run read it through WithinBudget on the tuning thread. Both
// sides now go through tree_mu_ (and config() returns a copy taken under
// the lock).
TEST_F(ConcurrencyDbTest, MctsBudgetMovesDuringRun) {
  AutoIndexManager manager(&db_);
  for (int i = 0; i < 4; ++i) {
    manager.ObserveOnly("SELECT a FROM t WHERE b = 3");
  }
  const WorkloadModel w = manager.CurrentWorkload();
  ASSERT_FALSE(w.entries.empty());

  IndexBenefitEstimator estimator(&db_);
  MctsConfig config;
  config.iterations = 40;
  MctsIndexSelector selector(&db_, &estimator, config);

  std::atomic<bool> stop{false};
  std::thread knob([&] {
    size_t budget = 0;
    while (!stop.load()) {
      selector.set_storage_budget(budget);
      budget = budget == 0 ? (size_t{1} << 20) : 0;
      EXPECT_GE(selector.config().iterations, 1u);
    }
  });
  for (int round = 0; round < 5; ++round) {
    const MctsResult result = selector.Run(
        IndexConfig(), {IndexDef("t", {"a"}), IndexDef("t", {"b"})}, w);
    EXPECT_GE(result.iterations_run, 1u);
    const Status tree_ok = selector.ValidateTree();
    EXPECT_TRUE(tree_ok.ok()) << tree_ok.ToString();
  }
  stop.store(true);
  knob.join();
}

// --- Regression: the durability-log pointer is guarded (wal_mu_) ----------

namespace {
class CountingLog : public DurabilityLog {
 public:
  Status AppendStatement(const Statement&, uint64_t) override {
    return Count();
  }
  Status AppendCreateTable(const std::string&, const Schema&,
                           uint64_t) override {
    return Count();
  }
  Status AppendCreateIndex(const IndexDef&, uint64_t) override {
    return Count();
  }
  Status AppendDropIndex(const std::string&, uint64_t) override {
    return Count();
  }
  Status AppendBulkInsert(const std::string&, const std::vector<Row>&,
                          uint64_t) override {
    return Count();
  }
  Status AppendAnalyze(const std::string&, uint64_t) override {
    return Count();
  }
  Status OnCheckpoint(uint64_t) override { return Status::Ok(); }

  size_t appends() const { return appends_.load(); }

 private:
  Status Count() {
    appends_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  std::atomic<size_t> appends_{0};
};
}  // namespace

// BulkInsert and the CommitDurable path used to read durability_log_
// outside wal_mu_, racing with set_durability_log. The pointer is guarded
// now, so attaching/detaching a log while writers commit is race-free
// (every statement sees either the old or the new log).
TEST_F(ConcurrencyDbTest, DurabilityLogAttachRacesWithWrites) {
  CountingLog log;
  std::atomic<bool> stop{false};
  std::thread writer([this, &stop] {
    std::unique_ptr<Session> session = db_.CreateSession();
    int id = 40000;
    while (!stop.load()) {
      const std::string sql =
          "INSERT INTO t VALUES (" + std::to_string(id++) + ", 1, 'd')";
      EXPECT_TRUE(session->Execute(sql).ok());
    }
  });
  for (int i = 0; i < 200; ++i) {
    db_.set_durability_log(&log);
    EXPECT_EQ(db_.durability_log(), &log);
    std::vector<Row> batch;
    batch.push_back({Value(int64_t(90000 + i)), Value(int64_t(2)),
                     Value("bulk")});
    EXPECT_TRUE(db_.BulkInsert("t", std::move(batch)).ok());
    db_.set_durability_log(nullptr);
  }
  stop.store(true);
  writer.join();
  // Every bulk batch committed while the log was attached was appended.
  EXPECT_GE(log.appends(), 200u);
  EXPECT_TRUE(db_.latches().Snapshot().latches.empty());
}

// --- Regression: SUM/AVG over string columns are NULL --------------------

TEST_F(ConcurrencyDbTest, SumAvgOverStringsReturnNull) {
  auto r = db_.Execute("SELECT SUM(s), AVG(s), COUNT(s), MIN(s) FROM t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].is_null());  // SUM over strings: no number
  EXPECT_TRUE(r->rows[0][1].is_null());  // AVG likewise
  EXPECT_EQ(r->rows[0][2].AsInt(), 1000);  // COUNT still counts
  EXPECT_FALSE(r->rows[0][3].is_null());   // MIN/MAX compare fine
}

}  // namespace
}  // namespace autoindex
